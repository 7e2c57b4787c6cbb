// The data plane: the one owner of in-flight payload bytes.
//
// Simulated time is charged from message metadata (size, dtype, op-cost),
// never from payload bytes, so a Machine runs in one of two modes with
// bit-identical results (docs/MODEL.md §10, tests/timeonly_test.cpp):
// payload machines (RunOptions::with_data) copy each outgoing payload into
// a pooled buffer recycled on delivery; metadata-only machines pass empty
// spans end to end, allocate nothing and count the bytes they elided.
// dpmllint's `payload-plane` rule flags Engine::payload_pool() access
// outside this file and the engine/pool internals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace dpml::sim {

// Ignored: every run uses the one PayloadPlane, and metadata-only runs
// (with_data = false) are the payload-free mode. The type and the
// `data_mode` option fields that carry it remain only because the benchmark
// driver (benchmark/dpmlbench.cpp) still sets them.
enum class DataMode {
  payload,
  timeonly,
};

class PayloadPlane {
 public:
  PayloadPlane(Engine& engine, bool with_data)
      : engine_(engine), with_data_(with_data) {}

  // Take ownership of the payload `data` of an outgoing `bytes`-byte
  // message: a pooled copy on payload machines, nothing on metadata-only
  // ones (which throw util::InvariantError if `data` is not empty).
  std::vector<std::byte> capture(std::size_t bytes,
                                 std::span<const std::byte> data) {
    if (!with_data_) {
      DPML_CHECK_MSG(data.empty(),
                     "payload bytes reached a metadata-only machine; "
                     "with_data = false runs must pass empty spans end to "
                     "end");
      elided_bytes_ += bytes;
      return {};
    }
    if (data.empty()) return {};
    std::vector<std::byte> buf = engine_.payload_pool().acquire(data.size());
    std::memcpy(buf.data(), data.data(), data.size());
    return buf;
  }

  // Return a delivered payload's storage to the pool.
  void reclaim(std::vector<std::byte> payload) {
    engine_.payload_pool().release(std::move(payload));
  }

  // Recycler handed to receive-side matchers so consumed payload buffers
  // flow back into the pool.
  BufferPool* recycler() noexcept { return &engine_.payload_pool(); }

  // Payload bytes a metadata-only machine has elided so far (0 on payload
  // machines).
  std::uint64_t elided_bytes() const noexcept { return elided_bytes_; }

 private:
  Engine& engine_;
  bool with_data_;
  std::uint64_t elided_bytes_ = 0;
};

}  // namespace dpml::sim
