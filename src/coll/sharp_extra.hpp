// SHArP-accelerated barrier and broadcast (paper §8 future work: "explore
// the designs for other collectives with SHArP").
//
// Both use the node-leader structure: intra-node synchronization through
// shared memory, with the inter-node stage offloaded to the switch
// aggregation tree instead of host point-to-point rounds.
#pragma once

#include "coll/bcast.hpp"
#include "coll/group_coll.hpp"
#include "sharp/sharp.hpp"

namespace dpml::coll {

// Both take CollArgs under the barrier and bcast conventions (bcast: the
// a.bytes() payload in recv). Neither is registered.

// Barrier: intra-node latch -> in-network barrier among node leaders ->
// intra-node release. World communicator only.
sim::CoTask<void> barrier_sharp(CollArgs a, sharp::SharpFabric& fabric);

// Broadcast: payload to the root's node leader -> in-network multicast to
// all node leaders -> shared-memory broadcast. Falls back to the host
// single-leader design when the payload exceeds the fabric limit.
sim::CoTask<void> bcast_sharp(CollArgs a, sharp::SharpFabric& fabric);

}  // namespace dpml::coll
