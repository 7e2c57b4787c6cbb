// Group collectives: gather, scatter, allgather, reduce_scatter, barrier.
//
// These complete the collective surface an MPI-like runtime needs and serve
// as independently-tested building blocks (e.g. the Rabenseifner allreduce
// is reduce_scatter + allgather; the van de Geijn bcast is scatter +
// allgather). Each is also a first-class registry collective (CollKind) with
// its own algorithm roster; the DPML multi-leader variants of allgather and
// reduce_scatter live in dpml.cpp next to the allreduce they compose into.
#pragma once

#include "coll/coll.hpp"

namespace dpml::sharp {
class SharpFabric;
}

namespace dpml::coll {

// Every design takes CollArgs with `count` elements of `dt` per block, and
// each kind's un-suffixed entry is its registered "auto" rule.

// ---- Gather / Scatter (equal block sizes) ----

// Gather: send is my block, recv (root only) spans comm-size blocks. The
// "auto" rule: linear on up to 4 ranks, binomial above.
sim::CoTask<void> gather(CollArgs a);
sim::CoTask<void> gather_binomial(CollArgs a);
// Root posts p-1 direct receives; optimal for small communicators where the
// root link is the bottleneck anyway and forwarding only adds hops.
sim::CoTask<void> gather_linear(CollArgs a);

// Scatter: send (root only) spans comm-size blocks, recv is my block. The
// "auto" rule matches gather's.
sim::CoTask<void> scatter(CollArgs a);
sim::CoTask<void> scatter_binomial(CollArgs a);
// Root sends p-1 blocks directly (non-blocking fan-out).
sim::CoTask<void> scatter_linear(CollArgs a);

// ---- Allgather ----

// send is my block, recv spans comm-size blocks (in-place: my block is
// already in recv). The "auto" rule: rd up to 32 KiB in total, ring above.
sim::CoTask<void> allgather(CollArgs a);
sim::CoTask<void> allgather_ring(CollArgs a);
// Recursive doubling; non-power-of-two sizes fall back to ring.
sim::CoTask<void> allgather_rd(CollArgs a);

// ---- Reduce-scatter (equal block counts per rank) ----

// send spans comm-size blocks, recv is my block. The "auto" rule routes
// non-commutative ops to reduce_then_scatter (the ring folds blocks in
// rotation order, which cannot honour ascending comm-rank operand order);
// commutative ops take the bandwidth-optimal ring.
sim::CoTask<void> reduce_scatter(CollArgs a);
// Ring reduce-scatter (bandwidth optimal; p-1 steps). Commutative ops only.
sim::CoTask<void> reduce_scatter_ring(CollArgs a);
// Binomial reduce of the full vector to comm rank 0 followed by a binomial
// scatter of the reduced blocks. Order-preserving, so it is the fallback
// for non-commutative ops (MPICH-style).
sim::CoTask<void> reduce_scatter_reduce_then_scatter(CollArgs a);

// ---- Barrier ----

// The "auto" rule: single-leader on the world communicator when ppn > 1,
// dissemination otherwise.
sim::CoTask<void> barrier(CollArgs a);
// Dissemination barrier: ceil(lg p) rounds of 0-byte messages.
sim::CoTask<void> barrier_dissemination(CollArgs a);
// Hierarchical: intra-node latch, inter-node dissemination among leaders
// (or, with a `fabric`, an in-network barrier among them: paper §8),
// intra-node release (world communicator only). Only the host path is
// registered.
sim::CoTask<void> barrier_single_leader(CollArgs a,
                                        sharp::SharpFabric* fabric = nullptr);

}  // namespace dpml::coll
