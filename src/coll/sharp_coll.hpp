// SHArP-based allreduce designs (paper §4.3).
//
//  * node_leader: one leader per node gathers all local vectors through
//    shared memory, reduces them, joins the in-network aggregation, and
//    broadcasts the result locally. Half the node's processes pay the
//    cross-socket copy penalty in both the gather and broadcast phases —
//    the bottleneck the paper identifies.
//
//  * socket_leader: one leader per socket; local traffic stays inside each
//    socket, and all socket leaders (2·nodes ports on dual-socket Xeon)
//    join the SHArP group. Keeps the number of fabric ports small while
//    avoiding the socket interconnect.
//
// If the payload exceeds the fabric's aggregation limit the designs fall
// back to the host-based single-leader algorithm (as the runtime would).
// Both are coll/node's leader_allreduce with in-network leaders.
#pragma once

#include "coll/coll.hpp"
#include "sharp/sharp.hpp"

namespace dpml::coll {

enum class SharpDesign { node_leader, socket_leader };

const char* sharp_design_name(SharpDesign d);

sim::CoTask<void> allreduce_sharp(CollArgs a, sharp::SharpFabric& fabric,
                                  SharpDesign design);

}  // namespace dpml::coll
