#include "coll/baselines.hpp"

#include <utility>

#include "coll/dpml.hpp"
#include "coll/registry.hpp"

namespace dpml::coll {

sim::CoTask<void> allreduce_mvapich2(CollArgs a) {
  const std::size_t nbytes = a.bytes();
  if (nbytes <= kMvapich2FlatThreshold) {
    return allreduce_single_leader(std::move(a), InterAlgo::automatic);
  }
  return allreduce_reduce_scatter_allgather(std::move(a));
}

sim::CoTask<void> allreduce_intelmpi(CollArgs a) {
  const std::size_t nbytes = a.bytes();
  if (nbytes <= kIntelMpiStripeThreshold) {
    return allreduce_single_leader(std::move(a), InterAlgo::automatic);
  }
  CollSpec spec;
  // Fixed 8-way node striping regardless of message size or platform — the
  // untuned configuration DPML's per-size leader selection improves on.
  spec.leaders = std::min(8, a.rank->machine().ppn());
  spec.inter = InterAlgo::reduce_scatter_allgather;
  return allreduce_dpml(std::move(a), spec);
}

// ---- Registry entries ----

namespace {

const CollRegistration reg_mvapich2{plain_desc(
    "mvapich2", CollKind::allreduce, allreduce_mvapich2,
    CollCaps{.world_only = true})};
const CollRegistration reg_intelmpi{plain_desc(
    "intelmpi", CollKind::allreduce, allreduce_intelmpi,
    CollCaps{.world_only = true})};

}  // namespace

void link_baseline_collectives() {}

}  // namespace dpml::coll
