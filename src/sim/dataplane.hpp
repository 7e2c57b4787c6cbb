// Data planes: who owns payload bytes during a simulated run.
//
// The engine charges simulated time from message *metadata* (size, dtype,
// op-cost); payload bytes only matter to verification and to algorithms that
// inspect them. The DataPlane abstraction makes that split explicit: every
// in-flight payload buffer is captured from and reclaimed to exactly one
// plane object owned by the Machine.
//
//   PayloadPlane   the classic plane: outgoing payloads are copied into
//                  pooled buffers (sim/pool.hpp BufferPool) and recycled on
//                  delivery. Empty spans (metadata-only callers) cost
//                  nothing.
//   TimeOnlyPlane  (sim/timeonly.hpp) payload-free extreme-scale mode:
//                  messages carry only their MsgMeta record, per-rank state
//                  is a compact POD counter block instead of live buffers,
//                  and any payload byte reaching the plane is an invariant
//                  violation. Simulated time is bit-identical to the payload
//                  plane (locked by tests/timeonly_test.cpp golden parity).
//
// The planes are the only sanctioned owners of payload storage: dpmllint's
// `payload-plane` rule flags Engine::payload_pool() access outside them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace dpml::sim {

enum class DataMode {
  payload,   // payload-carrying plane (default; verification possible)
  timeonly,  // payload-free plane (metadata-only, 100k+ rank sweeps)
};

const char* data_mode_name(DataMode mode);
// Throws util::InvariantError listing the valid names.
DataMode data_mode_by_name(const std::string& name);

// Everything a time-only message carries: the metadata the transport charges
// time from. Mirrors the fields of simmpi::Envelope that survive payload
// elision.
struct MsgMeta {
  int src = -1;           // sending world rank
  std::size_t bytes = 0;  // message size (drives every bandwidth term)
  int dtype = -1;         // simcheck dtype annotation (-1: unchecked)
  Time op_cost = 0;       // receiver-side per-message cost (o_recv / flag)
};

class DataPlane {
 public:
  virtual ~DataPlane() = default;

  virtual DataMode mode() const noexcept = 0;

  // Take ownership of the outgoing payload of the message described by
  // `meta`. The payload plane copies `data` into a pooled buffer; the
  // time-only plane records the metadata into its per-rank POD state and
  // returns an empty vector (a non-empty `data` is an invariant violation
  // there — payload bytes must never reach the time-only plane).
  virtual std::vector<std::byte> capture(const MsgMeta& meta,
                                         const std::byte* data,
                                         std::size_t size) = 0;

  // Return a delivered payload's storage to the plane (pool recycling).
  virtual void reclaim(std::vector<std::byte> payload) = 0;

  // Recycler handed to receive-side matchers so consumed payload buffers
  // flow back into the plane's pool (nullptr when the plane owns none).
  virtual BufferPool* recycler() noexcept = 0;

  // Payload bytes elided so far (0 on the payload plane); makes the memory
  // win of time-only mode visible in perf summaries.
  virtual std::uint64_t elided_bytes() const noexcept { return 0; }
};

// The classic payload-carrying plane: a thin owner over the engine's
// recycled buffer pool.
class PayloadPlane final : public DataPlane {
 public:
  explicit PayloadPlane(Engine& engine) : engine_(engine) {}

  DataMode mode() const noexcept override { return DataMode::payload; }

  std::vector<std::byte> capture(const MsgMeta& meta, const std::byte* data,
                                 std::size_t size) override;

  void reclaim(std::vector<std::byte> payload) override {
    engine_.payload_pool().release(std::move(payload));
  }

  BufferPool* recycler() noexcept override { return &engine_.payload_pool(); }

 private:
  Engine& engine_;
};

}  // namespace dpml::sim
