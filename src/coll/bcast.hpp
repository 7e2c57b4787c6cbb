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
//                          leaders, shared-memory broadcast within the node
#pragma once

#include "coll/coll.hpp"

namespace dpml::coll {

// Every design takes CollArgs with `count` elements of `dt` (a.bytes() is
// the payload) in recv: valid at the root, filled elsewhere.

// The "auto" rule: binomial up to 8 KiB, scatter-allgather above.
sim::CoTask<void> bcast(CollArgs a);

sim::CoTask<void> bcast_binomial(CollArgs a);
sim::CoTask<void> bcast_scatter_allgather(CollArgs a);
// Requires the world communicator (leaders are per-node); root must be a
// node leader's world rank or the payload is first forwarded to one.
sim::CoTask<void> bcast_single_leader(CollArgs a);

// The argument checks every bcast design (and bcast_sharp) runs at entry.
void check_bcast(const CollArgs& a);

}  // namespace dpml::coll
