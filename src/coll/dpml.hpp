// Hierarchical allreduce designs (paper §4).
//
//  * allreduce_single_leader — the traditional one-leader-per-node scheme
//    MVAPICH2-style: shm gather to the node leader, leader-only inter-node
//    allreduce, shm broadcast. This is the design whose drawbacks (serial
//    (ppn-1)·n reduction, one inter-node stream per node) DPML removes.
//
//  * allreduce_dpml — Data Partitioning-based Multi-Leader (paper §4.1):
//    every rank splits its vector into `leaders` partitions and copies each
//    into the owning leader's shared-memory window (phase 1); leaders reduce
//    their partition across all local ranks in parallel (phase 2); each
//    leader runs a concurrent inter-node allreduce with its peers on other
//    nodes (phase 3); ranks copy the fully-reduced partitions back (phase 4).
//
//  * pipeline_k > 1 selects DPML-Pipelined (paper §4.2): phase 3 further
//    splits each leader's partition into k sub-partitions moved by
//    non-blocking allreduces + waitall, regaining message-rate concurrency
//    on fabrics whose large-message throughput does not scale (Omni-Path
//    Zone C).
//
// The data-partitioned phases are also exposed as standalone collectives:
// reduce_scatter_dpml is literally phases 1-3 (allreduce_dpml is the
// verified composition reduce-scatter + shared-memory allgather of every
// partition), and allgather_dpml is the communication dual (stripe the
// node's blocks across leaders, one concurrent inter-node allgather per
// leader group, shared-memory collection).
//
// All hierarchical designs require the collective to run on the machine's
// world communicator (leaders are per-node entities), like the paper's
// implementation inside MVAPICH2's shared-memory communicator structure;
// their node phases live in coll/node.
#pragma once

#include "coll/coll.hpp"
#include "coll/registry.hpp"

namespace dpml::coll {

sim::CoTask<void> allreduce_single_leader(CollArgs a,
                                          InterAlgo inter = InterAlgo::automatic);

// The dpml designs read spec.leaders (clamped to ppn), spec.pipeline_k
// (> 1 selects DPML-Pipelined; allgather ignores it) and spec.inter.
sim::CoTask<void> allreduce_dpml(CollArgs a, CollSpec spec);

// Standalone DPML reduce-scatter: `a.count` is the per-rank block element
// count (send spans comm_size blocks, recv one block); in-place is not
// supported. Falls back to the flat order-aware dispatch when ppn == 1.
sim::CoTask<void> reduce_scatter_dpml(CollArgs a, CollSpec spec);

// Standalone DPML allgather: `a.count` is the per-rank block element count
// (recv spans comm_size blocks; in-place reads my block from recv). Falls
// back to the flat dispatch when ppn == 1.
sim::CoTask<void> allgather_dpml(CollArgs a, CollSpec spec);

}  // namespace dpml::coll
