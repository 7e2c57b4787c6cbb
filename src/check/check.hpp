// simcheck: MUST-style runtime MPI-semantics verification.
//
// A Checker is owned by a simmpi::Machine when RunOptions::check_level is
// not `off`. It observes the transport (sends, receives, shared-memory
// copies) and the core dispatch layer (collective entry/exit with argument
// and buffer snapshots) as pure host-side bookkeeping — no simulated time is
// ever charged, so a checked run's simulated clock is bit-identical to an
// unchecked one. Detected violations throw CheckError with an actionable,
// rank-attributed report and fail the run fast.
//
// What it catches (see docs/CHECKING.md for the rule catalogue):
//   - unmatched sends (message delivered but never received)
//   - leaked posted receives / wait-cycle deadlock, with a per-rank report
//     of every blocked request and every queued-but-unreceived message
//   - send/recv count- and datatype-mismatches inside reduction collectives
//   - overlapping live communication buffers (send/recv/shm aliasing)
//   - per-collective result verification against the one serial reference
//     (reference_mismatch, shared with core::measure_collective): a fold in
//     ascending comm-rank order — including non-commutative user ops — or a
//     placement of the inputs
//   - SPMD argument divergence across the ranks of one collective
//   - (strict) capacity/bytes exactness, leaked collective slots, and
//     unbalanced tracer begin/end spans
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/kind.hpp"
#include "simmpi/datatype.hpp"
#include "simmpi/message.hpp"

namespace dpml::check {

enum class CheckLevel : std::uint8_t { off, basic, strict };

const char* check_level_name(CheckLevel level);
// Accepts "off", "basic", "strict"; throws util::InvariantError otherwise.
CheckLevel check_level_by_name(const std::string& name);

struct Violation {
  std::string rule;     // e.g. "unmatched-send", "result-mismatch"
  int rank = -1;        // world rank, -1 when not rank-specific
  std::string context;  // op/callsite context, e.g. "allreduce/dpml(l=4)"
  std::string message;  // one actionable sentence

  std::string format() const;
};

// One blocked endpoint in a deadlock: world rank `rank` is stuck on a
// posted receive for (ctx, src, tag). src/tag are -1 for wildcards.
struct BlockedEdge {
  int rank = -1;
  int ctx = 0;
  int src = -1;
  int tag = -1;
  std::size_t capacity = 0;
};

// Structured deadlock report: {"blocked": [edge...], "cycle": [rank...]}.
// The cycle is the rank -> awaited-rank chain the blocked edges form
// (empty when acyclic, e.g. a rank waiting on a message nobody sends).
// One format shared by --check deadlock reports and dpmlmc counterexample
// traces (docs/CHECKING.md).
std::string deadlock_report_json(const std::vector<BlockedEdge>& edges);

class CheckError : public std::runtime_error {
 public:
  CheckError(std::string report, std::vector<Violation> violations,
             std::string deadlock_json = "");

  const std::vector<Violation>& violations() const { return violations_; }
  // Structured wait-cycle JSON (deadlock_report_json) when this error
  // reports a deadlock; empty otherwise.
  const std::string& deadlock_json() const { return deadlock_json_; }

 private:
  std::vector<Violation> violations_;
  std::string deadlock_json_;
};

// ---- the serial reference ----

// One collective invocation as the serial reference reads it.
struct CollCall {
  coll::CollKind kind = coll::CollKind::allreduce;
  int parties = 0;  // comm size p
  int root = 0;
  std::size_t count = 0;  // per kind, as coll/registry.hpp defines it
  simmpi::Dtype dt = simmpi::Dtype::f32;
  simmpi::Op op = simmpi::ReduceOp::sum;
};

// The first output element that differs from the serial reference.
struct ResultMismatch {
  int comm_rank = -1;
  std::size_t element = 0;  // element index into that rank's recv
  std::string got;          // the element as the rank holds it ("?": none)
  std::string expected;     // the element the reference computes
};

// Deterministic counts of verification work (docs/CHECKING.md): the
// serial reference's (invocations verified, result bytes compared, operand
// bytes folded) and the checker's entry and exit snapshots.
struct VerifyStats {
  std::uint64_t invocations = 0;     // results compared with the reference
  std::uint64_t snapshot_bytes = 0;  // input and output bytes snapshotted
  std::uint64_t compared_bytes = 0;  // result bytes compared
  std::uint64_t folded_bytes = 0;    // operand bytes folded (reducing kinds)

  void merge(const VerifyStats& o) {
    invocations += o.invocations;
    snapshot_bytes += o.snapshot_bytes;
    compared_bytes += o.compared_bytes;
    folded_bytes += o.folded_bytes;
  }
  bool operator==(const VerifyStats&) const = default;
};

// The one serial reference of every kind. The reducing kinds fold the
// inputs in ascending comm-rank order, the order MPI guarantees for
// non-commutative ops (associativity may be exploited, the operand
// sequence may not be reordered); bcast and scatter copy the root's input,
// allgather and gather place the inputs in comm-rank order, and alltoall
// transposes the blocks. inputs[cr] is comm rank cr's input over its
// extent (coll::input_blocks; empty where it contributes none) and
// outputs[cr] its recv; only the ranks that hold a result
// (coll::holds_result) are compared, each block with memcmp and, only
// when it differs, byte by byte for the first wrong element. Allocates the
// reducing kinds' fold only. Adds its work to `stats` when given.
std::optional<ResultMismatch> reference_mismatch(
    const CollCall& call, std::span<const simmpi::ConstBytes> inputs,
    std::span<const simmpi::ConstBytes> outputs,
    VerifyStats* stats = nullptr);

// RAII registration of a live communication buffer (the span a send is
// reading or a receive is writing). Released on destruction, so coroutine
// frames release at co_return/unwind automatically.
class Checker;
class BufferLease {
 public:
  BufferLease() = default;
  BufferLease(Checker* ck, int rank, int id) : ck_(ck), rank_(rank), id_(id) {}
  BufferLease(const BufferLease&) = delete;
  BufferLease& operator=(const BufferLease&) = delete;
  BufferLease(BufferLease&& o) noexcept { *this = std::move(o); }
  BufferLease& operator=(BufferLease&& o) noexcept;
  ~BufferLease() { release(); }
  void release();

 private:
  Checker* ck_ = nullptr;
  int rank_ = -1;
  int id_ = -1;
};

class Checker {
 public:
  Checker(CheckLevel level, bool with_data, int world_size);

  CheckLevel level() const { return level_; }
  bool strict() const { return level_ == CheckLevel::strict; }

  // ---- transport hooks (simmpi::Machine) ----

  // Called at blocking-send entry. Validates count integrity against the
  // sender's current reduction dtype (if any).
  void on_send(int src, int dst, int ctx, int tag, std::size_t bytes);

  // Register a live buffer span; conflicts (overlap with another live span
  // where either side writes) throw. Empty spans return an inert lease.
  BufferLease acquire_read(int rank, simmpi::ConstBytes span, const char* what,
                           int ctx, int tag);
  BufferLease acquire_write(int rank, simmpi::MutBytes span, const char* what,
                            int ctx, int tag);

  // Called when a receive completes (payload delivered, before the receive
  // returns). Validates datatype agreement between sender and receiver and
  // count integrity; strict additionally requires the posted capacity to
  // equal the delivered byte count.
  void on_recv_complete(int rank, int ctx, const simmpi::PostedRecv& pr);

  // The sender-side dtype annotation stamped into envelopes: the innermost
  // reduction collective this rank is currently inside, or -1.
  int current_dtype(int rank) const;

  // ---- collective hooks (core::run_collective) ----

  // Registers this rank's entry into a collective on `ctx` and snapshots its
  // input vector. Returns a token to pass to end_collective. Invocations are
  // matched across ranks by per-(rank, ctx) call sequence, which SPMD
  // execution keeps consistent; argument divergence between ranks of one
  // invocation is itself a violation.
  std::uint64_t begin_collective(coll::CollKind op_kind, int world_rank,
                                 int ctx, const std::string& label,
                                 int parties, int comm_rank, int root,
                                 std::size_t count, simmpi::Dtype dt,
                                 const simmpi::Op& op,
                                 simmpi::ConstBytes input);
  // Registers exit; when the last party exits, the invocation's outputs are
  // verified against reference_mismatch over the entry snapshots.
  void end_collective(int world_rank, std::uint64_t token,
                      simmpi::ConstBytes output);

  // ---- end-of-run hooks (simmpi::Machine::run) ----

  // Record one rank's matcher state after the engine drained (or
  // deadlocked): leaked unexpected envelopes and still-posted receives.
  void note_endpoint_state(int rank, const simmpi::Matcher& matcher);

  // Final verdict. `deadlocked` augments the engine's deadlock error with
  // the per-rank blocked-request report; `live_slots` and
  // `open_trace_spans` feed the strict-only leak checks. Throws CheckError
  // if any violation accumulated.
  void finalize(bool deadlocked, const std::string& deadlock_what,
                std::size_t live_slots, std::size_t open_trace_spans);

  // Blocked receives recorded by note_endpoint_state (deadlock reports).
  const std::vector<BlockedEdge>& blocked_edges() const {
    return blocked_edges_;
  }

  // Immediately fail the run with one violation (fail-fast path).
  [[noreturn]] void fail(Violation v) const;

  // The verification work done so far (snapshots and reference runs).
  const VerifyStats& stats() const { return stats_; }

 private:
  struct LiveBuffer {
    const std::byte* lo = nullptr;
    const std::byte* hi = nullptr;
    bool writable = false;
    const char* what = "";
    int ctx = 0;
    int tag = 0;
    bool active = false;
  };

  struct OpenColl {
    int ctx = 0;
    std::uint64_t seq = 0;
    int dtype = -1;  // annotation for p2p traffic; -1 for byte-oblivious kinds
  };

  struct Party {
    bool entered = false;
    bool exited = false;
    int world_rank = -1;
    std::vector<std::byte> input;
    std::vector<std::byte> output;
  };

  struct CollRecord {
    CollCall call;
    std::string label;
    std::vector<Party> party;
    int entered = 0;
    int exited = 0;
  };

  // Snapshot storage of one byte size, recycled across invocations.
  struct SpareSnapshots {
    std::size_t bytes = 0;
    std::vector<std::vector<std::byte>> free;
  };

  friend class BufferLease;
  void release_buffer(int rank, int id);

  // Copies `bytes` into `into`, reusing spare storage of that size.
  void snapshot(std::vector<std::byte>& into, simmpi::ConstBytes bytes);
  // Returns a finished invocation's snapshot storage to the spares.
  void recycle(std::vector<std::byte>&& buf);

  BufferLease acquire(int rank, const std::byte* data, std::size_t size,
                      bool writable, const char* what, int ctx, int tag);
  std::string label_of(int rank) const;  // innermost collective label or ""
  void verify_collective(const CollRecord& rec);

  CheckLevel level_;
  bool with_data_;
  int world_size_;

  std::vector<std::vector<LiveBuffer>> live_;       // per rank
  std::vector<std::vector<OpenColl>> open_;         // per rank, nesting stack
  std::map<std::pair<int, int>, std::uint64_t> enter_seq_;  // (ctx, rank)
  std::map<std::pair<int, std::uint64_t>, CollRecord> records_;
  std::vector<Violation> deferred_;  // finalize-time accumulation
  std::vector<BlockedEdge> blocked_edges_;
  // Per byte size, so invocations of one shape reuse their predecessors'
  // snapshots: a steady state allocates no snapshot storage.
  std::vector<SpareSnapshots> spare_;
  VerifyStats stats_;
};

}  // namespace dpml::check
