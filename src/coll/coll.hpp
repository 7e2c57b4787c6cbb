// Common definitions for collective algorithms.
//
// Every algorithm is a coroutine invoked by all participating ranks with
// identical arguments (SPMD style, like an MPI collective). Buffers may be
// empty in metadata-only runs; simulated time is charged identically either
// way. All reduction operators are assumed associative (as MPI requires);
// ops may be non-commutative (Op::commutative() == false), in which case
// every algorithm folds operands in ascending comm-rank order — either
// directly (Op::apply_left at the order-sensitive folds) or by falling back
// to an order-preserving algorithm, exactly as real MPI libraries do.
#pragma once

#include <cstddef>
#include <vector>

#include "coll/kind.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/datatype.hpp"
#include "simmpi/machine.hpp"

namespace dpml::coll {

using simmpi::Comm;
using simmpi::ConstBytes;
using simmpi::Dtype;
using simmpi::MutBytes;
using simmpi::Op;
using simmpi::Rank;

// The one argument type of every algorithm of every kind; `count` is read
// per kind as coll/registry.hpp documents, and the buffers follow the
// kind's contract in coll/kind.hpp (a bcast payload is in recv).
struct CollArgs {
  Rank* rank = nullptr;
  const Comm* comm = nullptr;
  std::size_t count = 0;
  Dtype dt = Dtype::f32;
  Op op = simmpi::ReduceOp::sum;
  ConstBytes send{};  // empty in metadata-only runs, or when in-place
  MutBytes recv{};
  int tag_base = 0;     // tag namespace for concurrent sub-collectives
  bool inplace = false; // recv already holds the input vector (MPI_IN_PLACE)
  int root = 0;  // rooted kinds (reduce/bcast/gather/scatter) only

  std::size_t bytes() const { return count * simmpi::dtype_size(dt); }
  // Allocate a scratch buffer honouring the machine's data mode.
  std::vector<std::byte> scratch(std::size_t nbytes) const;
};

// Validates `a` against the kind's buffer contract (coll/kind.hpp): rank
// and comm set, a rooted kind's root in range, in place only where the
// kind allows it and then with an empty send, every buffer empty or exactly
// its extent, and in data mode the rank's input and result buffers present.
// Throws util::InvariantError naming the kind and the buffer. Every design
// calls it at entry; on the passing path it builds no string.
void check_args(CollKind kind, const CollArgs& a);

// Block partition of `count` elements into `parts` pieces; the remainder is
// spread over the first `count % parts` pieces (ragged partitions).
struct Part {
  std::size_t offset = 0;  // element offset
  std::size_t count = 0;   // element count
};
Part partition(std::size_t count, int parts, int index);

// Inter-node allreduce algorithm selector for the hierarchical designs'
// phase 3 (and the flat baselines themselves).
enum class InterAlgo {
  recursive_doubling,
  reduce_scatter_allgather,
  ring,
  binomial,
  automatic,  // library-style choice by message size / comm size
};

// Span helpers tolerating empty (metadata-only) spans.
inline ConstBytes sub(ConstBytes b, std::size_t off, std::size_t len) {
  return b.empty() ? b : b.subspan(off, len);
}
inline MutBytes sub(MutBytes b, std::size_t off, std::size_t len) {
  return b.empty() ? b : b.subspan(off, len);
}
inline ConstBytes as_const(MutBytes b) { return ConstBytes{b.data(), b.size()}; }

// The one local copy: charges the copy start-up plus `bytes` at the host's
// copy bandwidth and, when both spans hold data, moves `bytes` from src to
// dst (no spans: the caller moves them itself). The bytes move at once and
// the returned delay ends the charge: the spans are the rank's own, so
// nothing reads them before it resumes. Frame-free, so awaiting it costs
// the one resume of the delay and no coroutine frame.
sim::Engine::DelayAwaiter local_copy(Rank& r, std::size_t bytes,
                                     MutBytes dst = {}, ConstBytes src = {});

// Charge (and in data mode perform) the copy of this rank's input vector
// into `to` (recv unless named). In place the input is already home and
// nothing is charged.
sim::Engine::DelayAwaiter copy_in(const CollArgs& a, MutBytes to);
inline sim::Engine::DelayAwaiter copy_in(const CollArgs& a) {
  return copy_in(a, a.recv);
}

// ---- Flat algorithms (any communicator; callers not in comm return) ----
sim::CoTask<void> allreduce_recursive_doubling(CollArgs a);
sim::CoTask<void> allreduce_reduce_scatter_allgather(CollArgs a);
// Ring with `channels` concurrent chunk-rings in lockstep (registered as
// "cring"; CollSpec::leaders is the channel count). More channels buy a
// larger aggregate max-min share on congested links at the cost of extra
// per-message overheads — the adaptive re-planner's lever (docs/MODEL.md §12).
// One channel is the plain ring (registered as "ring", and InterAlgo::ring):
// the ring reduce-scatter, then the ring allgather (coll/ring.hpp).
sim::CoTask<void> allreduce_ring_channels(CollArgs a, int channels);
// Binomial reduce to comm rank 0, then binomial bcast from it.
sim::CoTask<void> allreduce_binomial(CollArgs a);
// Naive gather+reduce+bcast at comm rank 0 (reference baseline).
sim::CoTask<void> allreduce_gather_bcast(CollArgs a);

// Dispatch on InterAlgo (automatic applies the standard size-based choice).
sim::CoTask<void> inter_allreduce(CollArgs a, InterAlgo algo);
// The choice `automatic` resolves to for a given (bytes, comm size).
InterAlgo resolve_auto(std::size_t bytes, int comm_size);

}  // namespace dpml::coll
