// The node phase of the hierarchical designs (paper §4).
//
// Every hierarchical design is one node skeleton: ranks stage their vectors
// in a leader's shared-memory window, the leader folds them, the leaders run
// a stage across nodes, and the result is published back through shared
// memory. Single-leader, DPML, DPML-Pipelined, the SHArP node- and
// socket-leader designs and the §8 reduce, bcast and barrier extensions
// share the decisions kept here:
//
//  * the communicator they run on (require_world);
//  * the per-invocation node slot, its tag namespace and its release
//    (NodeSlot);
//  * the slot layouts: leader groups of consecutive local ranks
//    (claim_leader_groups) and DPML's per-leader partitions
//    (claim_partitions);
//  * the single-leader allreduce over host or in-network leaders
//    (leader_allreduce);
//  * DPML's stage-and-fold (phases 1-2) and collect (phase 4), around the
//    leaders' allreduce or rooted reduce (dpml_reduce).
//
// The paper's MVAPICH2 builds the shared-memory and leader communicators
// once per communicator, not once per design; here every design reads the
// node's shape through this module.
#pragma once

#include <cstddef>
#include <cstdint>

#include "coll/coll.hpp"

namespace dpml::sharp {
class SharpFabric;
}

namespace dpml::coll {

// Throws unless `a` runs on the machine's world communicator: leaders are
// per-node entities of the world's node structure.
void require_world(const CollArgs& a);

// One invocation's node-shared state (simmpi::CollSlot). Every rank of the
// node claims the same slot, because ranks call a context's collectives in
// the same order, and releases it once when done; the last release frees
// it. Claimed through claim_leader_groups or claim_partitions.
class NodeSlot {
 public:
  explicit NodeSlot(const CollArgs& a);

  simmpi::CollSlot& operator*() const { return *slot_; }
  simmpi::CollSlot* operator->() const { return slot_; }
  // Tag namespace of the invocation's leader stage, from its sequence
  // number, so concurrent invocations (several outstanding non-blocking
  // allreduces) never cross-match on the shared leader communicators.
  // 2048 tags per invocation cover the pipelined variant's k*128 chunks.
  int tag_base() const { return static_cast<int>(key_ & 0x3ff) * 2048; }
  void release();

 private:
  Rank* rank_;
  std::int64_t key_;
  simmpi::CollSlot* slot_;
};

// The parts of the leader-group layout a design uses, as a bit set.
enum GroupParts : unsigned {
  kStaging = 1,    // windows[2g]: the other members' vectors
  kResult = 2,     // windows[2g+1]: the leader's result
  kArrivals = 4,   // latches[g]: the other members have arrived
  kPublished = 8,  // flags[g]: the leader has published
};

// Claims the slot of a design that splits the node into leader groups of
// `span` consecutive local ranks (the whole node, or one socket), each led
// by its first rank. Group g's staging window holds its other members'
// `bytes`-byte vectors and its result window `bytes`, both on the leader's
// socket. A window the design does not use is empty, and an unused latch
// or flag is not made, so a slot allocates only what its design uses.
NodeSlot claim_leader_groups(const CollArgs& a, int span, std::size_t bytes,
                             unsigned parts);

// Claims the slot of DPML's layout over a `count`-element vector cut into
// l partitions: leader j's staging window windows[2j] holds stage_copies
// copies of partition j and its result window windows[2j+1] result_copies,
// both on the leader's socket; flags[j] publishes the result, and
// latches[0] counts every local rank in.
NodeSlot claim_partitions(const CollArgs& a, std::size_t count, int l,
                          int stage_copies, int result_copies);

// The single-leader allreduce of a validated `a`. Each leader group (the
// node, or with `per_socket` each populated socket) stages its members'
// vectors in its leader's window; the leader folds them, joins the
// leaders' allreduce (host point-to-point by `inter`, or in-network when
// `fabric` is set) and publishes the result for its members to copy out.
// Serves single-leader, and through it the small sizes of mvapich2 and
// intelmpi, and both SHArP designs.
sim::CoTask<void> leader_allreduce(CollArgs a, InterAlgo inter,
                                   sharp::SharpFabric* fabric,
                                   bool per_socket);

// DPML over the a.count-element vector (paper §4.1), in one frame: every
// rank stripes its input across the l leaders' staging windows (phase 1);
// leader j folds the ppn stripes of partition j in local-rank order
// (phase 2) and runs one stage per leader group across nodes (phase 3): an
// allreduce by `inter`, as k non-blocking chunks when k > 1, or with
// `root_node` >= 0 a rooted reduce toward that node, whose leaders alone
// publish. Ranks then copy elements [lo, hi) of the reduced vector out of
// the leaders' result windows into a.recv (phase 4): the allreduce all of
// them, the reduce-scatter its own block, the rooted reduce only at the
// root. Serves the dpml allreduce, reduce_scatter and reduce designs.
sim::CoTask<void> dpml_reduce(CollArgs a, int l, int k, InterAlgo inter,
                              int root_node, std::size_t lo, std::size_t hi);

}  // namespace dpml::coll
