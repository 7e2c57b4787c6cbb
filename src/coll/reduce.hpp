// Rooted reduction (MPI_Reduce).
//
// Includes the DPML extension the paper names as future work (§8): the same
// four-phase data-partitioned multi-leader structure, with phase 3 running a
// rooted inter-node reduce per leader group and phase 4 collecting the
// partitions at the root instead of broadcasting them.
//
// Designs:
//  * binomial        — lg(p) reduction tree (small messages)
//  * rsa_gather      — ring reduce-scatter + segment gather at the root
//                      (bandwidth-optimal for large messages)
//  * single_leader   — shm gather + leader reduce + inter-node rooted reduce
//  * dpml            — multi-leader partitioned (future-work extension)
#pragma once

#include "coll/coll.hpp"
#include "coll/registry.hpp"

namespace dpml::coll {

// Every design takes CollArgs with `count` elements: the whole vector. recv
// is significant only at the root; in-place, every rank's input is in recv.

// The "auto" rule: binomial up to 8 KiB, rsa-gather above.
sim::CoTask<void> reduce(CollArgs a);

sim::CoTask<void> reduce_binomial(CollArgs a);
sim::CoTask<void> reduce_rsa_gather(CollArgs a);
sim::CoTask<void> reduce_single_leader(CollArgs a);
// Reads spec.leaders (clamped to ppn).
sim::CoTask<void> reduce_dpml(CollArgs a, CollSpec spec);

}  // namespace dpml::coll
