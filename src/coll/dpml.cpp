#include "coll/dpml.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "coll/group_coll.hpp"
#include "coll/node.hpp"
#include "util/error.hpp"

namespace dpml::coll {

using simmpi::Machine;

namespace {

// The allgather's own phases over a claim_partitions slot (one staged copy
// of each partition of this node's contribution, h gathered copies).
sim::CoTask<void> allgather_partitioned(CollArgs a, int l) {
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const int ppn = m.ppn();
  const int h = m.num_nodes();
  const std::size_t esize = simmpi::dtype_size(a.dt);
  const std::size_t bbytes = a.bytes();
  const int me = r.world_rank();
  const ConstBytes input =
      a.inplace
          ? sub(as_const(a.recv), static_cast<std::size_t>(me) * bbytes,
                bbytes)
          : a.send;
  // This node contributes ppn consecutive blocks of the global result;
  // partition that contribution across the l leaders. Leader j's staging
  // window holds partition j of the node contribution, its result window
  // that partition for all h nodes after the leaders' inter-node exchange.
  const std::size_t node_count = a.count * static_cast<std::size_t>(ppn);
  NodeSlot slot = claim_partitions(a, node_count, l, 1, h);
  sim::Latch& gathered = slot->latches[0];

  // ---- Phase 1: write my block into the node-contribution stripes it
  // spans (a block can straddle a partition boundary when ppn % l != 0).
  const std::size_t my_lo = static_cast<std::size_t>(r.local_rank()) * a.count;
  for (int j = 0; j < l; ++j) {
    const Part pj = partition(node_count, l, j);
    const std::size_t lo = std::max(my_lo, pj.offset);
    const std::size_t hi = std::min(my_lo + a.count, pj.offset + pj.count);
    if (hi <= lo) continue;
    co_await r.shm_put(slot->windows[static_cast<std::size_t>(2 * j)],
                       (lo - pj.offset) * esize, (hi - lo) * esize,
                       sub(input, (lo - my_lo) * esize, (hi - lo) * esize));
  }
  co_await r.signal(gathered);

  // ---- Phase 2: each leader allgathers its partition of the node
  // contribution with its peers on the other h-1 nodes, concurrently with
  // the other leaders (one inter-node stream per leader, as in the
  // reduction design).
  const int my_leader = m.leader_index_of_local(r.local_rank(), l);
  std::vector<std::byte> stripe_store;
  std::vector<std::byte> result_store;
  if (my_leader >= 0) {
    const int j = my_leader;
    const Part pj = partition(node_count, l, j);
    const std::size_t pbytes = pj.count * esize;
    co_await gathered.wait();
    co_await r.compute(m.collection_cost(r.local_rank(), 0, ppn));
    stripe_store = a.scratch(pbytes);
    MutBytes stripe{stripe_store};
    co_await r.shm_get(slot->windows[static_cast<std::size_t>(2 * j)], 0,
                       pbytes, stripe);
    if (h > 1) {
      result_store = a.scratch(static_cast<std::size_t>(h) * pbytes);
      MutBytes result{result_store};
      CollArgs ia = a;
      ia.comm = &m.leader_comm(j, l);
      ia.count = pj.count;
      ia.send = as_const(stripe);
      ia.recv = result;
      ia.inplace = false;
      ia.tag_base = slot.tag_base();
      co_await allgather(std::move(ia));
      co_await r.shm_put(slot->windows[static_cast<std::size_t>(2 * j + 1)],
                         0, static_cast<std::size_t>(h) * pbytes,
                         as_const(result));
    } else {
      co_await r.shm_put(slot->windows[static_cast<std::size_t>(2 * j + 1)],
                         0, pbytes, as_const(stripe));
    }
    co_await r.signal(slot->flags[static_cast<std::size_t>(j)]);
  }

  // ---- Phase 3: every rank copies each leader's h per-node pieces home;
  // node n's piece of partition j lands at element n*node_count + pj.offset
  // of the global result.
  for (int j = 0; j < l; ++j) {
    const Part pj = partition(node_count, l, j);
    const std::size_t pbytes = pj.count * esize;
    co_await slot->flags[static_cast<std::size_t>(j)].wait();
    for (int n = 0; n < h; ++n) {
      co_await r.shm_get(
          slot->windows[static_cast<std::size_t>(2 * j + 1)],
          static_cast<std::size_t>(n) * pbytes, pbytes,
          sub(a.recv,
              (static_cast<std::size_t>(n) * node_count + pj.offset) * esize,
              pbytes));
    }
  }
  slot.release();
}

}  // namespace

sim::CoTask<void> allreduce_single_leader(CollArgs a, InterAlgo inter) {
  check_args(CollKind::allreduce, a);
  require_world(a);
  return leader_allreduce(std::move(a), inter, nullptr, false);
}

sim::CoTask<void> allreduce_dpml(CollArgs a, CollSpec spec) {
  check_args(CollKind::allreduce, a);
  require_world(a);
  DPML_CHECK_MSG(spec.pipeline_k >= 1, "pipeline_k must be >= 1");
  const int ppn = a.rank->machine().ppn();
  if (ppn == 1) return inter_allreduce(std::move(a), spec.inter);
  // The allreduce is literally the composition the paper exploits:
  // data-partitioned multi-leader reduce-scatter (phases 1-3), then a
  // shared-memory allgather of every partition (phase 4).
  const std::size_t count = a.count;
  return dpml_reduce(std::move(a), std::clamp(spec.leaders, 1, ppn),
                     spec.pipeline_k, spec.inter, -1, 0, count);
}

sim::CoTask<void> reduce_scatter_dpml(CollArgs a, CollSpec spec) {
  check_args(CollKind::reduce_scatter, a);
  require_world(a);
  DPML_CHECK_MSG(spec.pipeline_k >= 1, "pipeline_k must be >= 1");
  const int ppn = a.rank->machine().ppn();
  const std::size_t block = a.count;
  const std::size_t total = block * static_cast<std::size_t>(a.comm->size());
  // Degenerate hierarchy: flat order-aware dispatch.
  if (ppn == 1) return reduce_scatter(std::move(a));
  // View the p per-rank blocks as one contiguous total-element vector for
  // the shared phases; only my block is collected into recv (the
  // allreduce collects all of them).
  const auto me = static_cast<std::size_t>(a.rank->world_rank());
  a.count = total;
  return dpml_reduce(std::move(a), std::clamp(spec.leaders, 1, ppn),
                     spec.pipeline_k, spec.inter, -1, me * block,
                     (me + 1) * block);
}

sim::CoTask<void> allgather_dpml(CollArgs a, CollSpec spec) {
  check_args(CollKind::allgather, a);
  require_world(a);
  const int ppn = a.rank->machine().ppn();
  // Degenerate hierarchy: flat dispatch.
  if (ppn == 1) return allgather(std::move(a));
  return allgather_partitioned(std::move(a), std::clamp(spec.leaders, 1, ppn));
}

// ---- Registry entries ----

namespace {

const CollRegistration reg_single_leader{{
    "single-leader",
    CollKind::allreduce,
    CollCaps{.world_only = true},
    [](CollArgs a, const CollSpec& s) {
      return allreduce_single_leader(std::move(a), s.inter);
    },
}};

const CollRegistration reg_dpml{{
    "dpml",
    CollKind::allreduce,
    CollCaps{.uses_leaders = true,
             .supports_pipelining = true,
             .world_only = true,
             .tunable = true},
    allreduce_dpml,
}};

const CollRegistration reg_reduce_scatter_dpml{{
    "dpml",
    CollKind::reduce_scatter,
    CollCaps{.uses_leaders = true,
             .supports_pipelining = true,
             .world_only = true,
             .tunable = true},
    reduce_scatter_dpml,
}};

const CollRegistration reg_allgather_dpml{{
    "dpml",
    CollKind::allgather,
    CollCaps{.uses_leaders = true, .world_only = true, .tunable = true},
    allgather_dpml,
}};

}  // namespace

void link_dpml_collectives() {}

}  // namespace dpml::coll
