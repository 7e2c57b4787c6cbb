#include "coll/sharp_coll.hpp"

#include <string>
#include <utility>

#include "coll/node.hpp"
#include "coll/registry.hpp"
#include "util/error.hpp"

namespace dpml::coll {

const char* sharp_design_name(SharpDesign d) {
  switch (d) {
    case SharpDesign::node_leader: return "sharp-node-leader";
    case SharpDesign::socket_leader: return "sharp-socket-leader";
  }
  return "?";
}

sim::CoTask<void> allreduce_sharp(CollArgs a, sharp::SharpFabric& fabric,
                                  SharpDesign design) {
  check_args(CollKind::allreduce, a);
  require_world(a);
  // Payloads beyond the aggregation hardware's limit fall back to the
  // host-based path (the paper only uses SHArP for small messages). The
  // fabric also aggregates contributions in arrival order, which cannot
  // honour the ascending comm-rank fold non-commutative ops require.
  if (!fabric.supports(a.bytes()) || !a.op.commutative()) {
    return leader_allreduce(std::move(a), InterAlgo::automatic, nullptr,
                            false);
  }
  return leader_allreduce(std::move(a), InterAlgo::automatic, &fabric,
                          design == SharpDesign::socket_leader);
}

// ---- Registry entries ----

namespace {

CollDescriptor sharp_desc(const char* name, SharpDesign design) {
  CollDescriptor d;
  d.name = name;
  d.kind = CollKind::allreduce;
  d.caps = CollCaps{.needs_fabric = true,
                    .world_only = true,
                    .tunable = true,
                    // The fabric's useful aggregation range; the tuner only
                    // sweeps the SHArP designs at paper-small sizes.
                    .max_tune_bytes = 4096};
  d.make = [design](CollArgs a, const CollSpec& s) {
    DPML_CHECK_MSG(s.fabric != nullptr,
                   std::string(sharp_design_name(design)) +
                       " requires an attached SharpFabric");
    return allreduce_sharp(std::move(a), *s.fabric, design);
  };
  return d;
}

const CollRegistration reg_sharp_node{
    sharp_desc("sharp-node-leader", SharpDesign::node_leader)};
const CollRegistration reg_sharp_socket{
    sharp_desc("sharp-socket-leader", SharpDesign::socket_leader)};

}  // namespace

void link_sharp_collectives() {}

}  // namespace dpml::coll
