// Broadcast algorithms.
//
// Substrate for the hierarchical designs (phase-4 of single-leader allreduce
// is a broadcast) and part of the paper's stated future work: applying the
// multi-leader/shared-memory treatment to other collectives. Three designs:
//
//  * binomial            — classic lg(p) tree (small messages)
//  * scatter_allgather   — van de Geijn: binomial scatter + ring allgather
//                          (large messages; bandwidth-optimal)
//  * single_leader       — shm-hierarchical: inter-node bcast among node
//                          leaders (host binomial, or a SHArP multicast),
//                          shared-memory broadcast within the node
#pragma once

#include "coll/coll.hpp"

namespace dpml::sharp {
class SharpFabric;
}

namespace dpml::coll {

// Every design takes CollArgs with `count` elements of `dt` (a.bytes() is
// the payload) in recv: valid at the root, filled elsewhere.

// The "auto" rule: binomial up to 8 KiB, scatter-allgather above.
sim::CoTask<void> bcast(CollArgs a);

sim::CoTask<void> bcast_binomial(CollArgs a);
sim::CoTask<void> bcast_scatter_allgather(CollArgs a);
// Requires the world communicator (leaders are per-node); a root that is
// not a node leader first forwards the payload to its node's leader. With a
// `fabric` (paper §8: SHArP for other collectives), the node leaders take
// the payload from an in-network multicast instead of a binomial tree,
// unless it exceeds the fabric's limit; only the host path is registered.
sim::CoTask<void> bcast_single_leader(CollArgs a,
                                      sharp::SharpFabric* fabric = nullptr);

}  // namespace dpml::coll
