#include "coll/dpml.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "coll/group_coll.hpp"
#include "coll/registry.hpp"
#include "util/error.hpp"

namespace dpml::coll {

using simmpi::CollSlot;
using simmpi::Machine;
using simmpi::ShmWindow;

namespace {

ConstBytes input_of(const CollArgs& a) {
  return a.inplace ? as_const(a.recv) : a.send;
}

// Tag namespace for the inter-node phase, derived from the collective's
// per-(rank,context) sequence number so concurrent invocations (e.g.
// several outstanding non-blocking allreduces) never cross-match on the
// shared leader communicators. 2048 tags per invocation covers the
// pipelined variant's k*128 chunk space.
int inner_tag_base(std::int64_t slot_key) {
  return static_cast<int>((slot_key & 0x3ff)) * 2048;
}

void require_world(const CollArgs& a) {
  DPML_CHECK_MSG(a.comm->context() == a.rank->machine().world().context(),
                 "hierarchical collective designs run on the world "
                 "communicator (leaders are per-node entities)");
}

// Shared-slot layout for the data-partitioned reduction phases. Per leader
// j: windows[2j] = gather staging (ppn stripes of the j-th partition),
// windows[2j+1] = result buffer; flags[j] = result ready. One latch: every
// rank arrives once after writing all l partitions.
void dpml_slot_init(Rank& r, CollSlot& slot, std::size_t count,
                    std::size_t esize, int l, int ppn) {
  if (slot.initialized) return;
  Machine& m = r.machine();
  for (int j = 0; j < l; ++j) {
    const Part pj = partition(count, l, j);
    const std::size_t pbytes = pj.count * esize;
    const int owner = m.socket_of_local(m.leader_local_rank(j, l));
    slot.windows.emplace_back(static_cast<std::size_t>(ppn) * pbytes, owner,
                              m.with_data());
    slot.windows.emplace_back(pbytes, owner, m.with_data());
    slot.flags.emplace_back(r.engine());
  }
  slot.latches.emplace_back(r.engine(), ppn);
  slot.initialized = true;
}

// Phases 1-3 of the paper's design over an a.count-element vector: stripe
// the input across the l leaders' gather windows, fold the ppn stripes of
// each partition in local-rank order, and run one inter-node allreduce per
// leader group concurrently. This IS the data-partitioned multi-leader
// reduce-scatter: on return, leader j's result window (windows[2j+1]) holds
// the fully reduced j-th partition and flags[j] is signalled. The caller
// owns slot setup (dpml_slot_init) and release.
sim::CoTask<void> dpml_reduce_scatter_phases(const CollArgs& a,
                                             const DpmlParams& params, int l,
                                             std::int64_t key,
                                             CollSlot& slot) {
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const int ppn = m.ppn();
  const int h = m.num_nodes();
  const int k = params.pipeline_k;
  const std::size_t esize = simmpi::dtype_size(a.dt);
  sim::Latch& gathered = slot.latches[0];

  // ---- Phase 1: partition the input and copy into each leader's window.
  const ConstBytes input = input_of(a);
  for (int j = 0; j < l; ++j) {
    const Part pj = partition(a.count, l, j);
    const std::size_t pbytes = pj.count * esize;
    co_await r.shm_put(slot.windows[2 * j],
                       static_cast<std::size_t>(r.local_rank()) * pbytes,
                       pbytes, sub(input, pj.offset * esize, pbytes));
  }
  co_await r.signal(gathered);

  const int my_leader = m.leader_index_of_local(r.local_rank(), l);
  std::vector<std::byte> part_store;
  if (my_leader >= 0) {
    const int j = my_leader;
    const Part pj = partition(a.count, l, j);
    const std::size_t pbytes = pj.count * esize;
    ShmWindow& gather = slot.windows[2 * j];
    ShmWindow& result = slot.windows[2 * j + 1];

    // ---- Phase 2: reduce the ppn stripes of partition j in parallel with
    // the other leaders. The leader pays a per-contributor collection cost
    // (the stripes were written by every local rank, both sockets).
    co_await gathered.wait();
    co_await r.compute(m.collection_cost(r.local_rank(), 0, ppn));
    part_store = a.scratch(pbytes);
    MutBytes part{part_store};
    if (gather.has_data() && pbytes > 0) {
      std::memcpy(part.data(), gather.data().data(), pbytes);
      for (int i = 1; i < ppn; ++i) {
        a.op.apply(a.dt, pj.count, part,
                   gather.data().subspan(static_cast<std::size_t>(i) * pbytes,
                                         pbytes));
      }
    }
    co_await r.reduce_compute(static_cast<std::size_t>(ppn - 1) * pbytes);

    // ---- Phase 3: concurrent inter-node allreduce per leader group.
    if (h > 1) {
      CollArgs ia = a;
      ia.comm = &m.leader_comm(j, l);
      ia.count = pj.count;
      ia.send = {};
      ia.recv = part;
      ia.inplace = true;
      if (k == 1) {
        ia.tag_base = inner_tag_base(key);
        co_await inter_allreduce(std::move(ia), params.inter);
      } else {
        // DPML-Pipelined: k concurrent non-blocking sub-allreduces.
        std::vector<std::shared_ptr<sim::Flag>> pending;
        pending.reserve(static_cast<std::size_t>(k));
        for (int q = 0; q < k; ++q) {
          const Part cq = partition(pj.count, k, q);
          CollArgs ca = ia;
          ca.count = cq.count;
          ca.recv = sub(part, cq.offset * esize, cq.count * esize);
          ca.tag_base = inner_tag_base(key) + q * 128;
          pending.push_back(r.engine().spawn_sub(
              inter_allreduce(std::move(ca), params.inter)));
        }
        co_await sim::wait_all(std::move(pending));
      }
    }

    // Publish the fully reduced partition for the collection phase.
    co_await r.shm_put(result, 0, pbytes, as_const(part));
    co_await r.signal(slot.flags[j]);
  }
}

// Phase 4 generalised over an element range: copy [elem_lo, elem_hi) of the
// reduced a.count-element vector out of the leaders' result windows into
// dest (dest[0] corresponds to element elem_lo). A partition fully
// contained in the range is visited even when empty, so the full-range call
// made by allreduce_dpml — every partition contained — stays operation-for-
// operation identical to the historical monolithic phase 4 (zero-length
// partitions still flag-wait and issue a 0-byte copy), which the golden
// tests lock in.
sim::CoTask<void> dpml_collect_range(const CollArgs& a, CollSlot& slot, int l,
                                     std::size_t elem_lo, std::size_t elem_hi,
                                     MutBytes dest) {
  Rank& r = *a.rank;
  const std::size_t esize = simmpi::dtype_size(a.dt);
  for (int j = 0; j < l; ++j) {
    const Part pj = partition(a.count, l, j);
    const std::size_t lo = std::max(elem_lo, pj.offset);
    const std::size_t hi = std::min(elem_hi, pj.offset + pj.count);
    const bool contained =
        elem_lo <= pj.offset && pj.offset + pj.count <= elem_hi;
    if (hi < lo || (hi == lo && !contained)) continue;
    const std::size_t nbytes = (hi - lo) * esize;
    co_await slot.flags[j].wait();
    co_await r.shm_get(slot.windows[2 * j + 1], (lo - pj.offset) * esize,
                       nbytes, sub(dest, (lo - elem_lo) * esize, nbytes));
  }
}

}  // namespace

sim::CoTask<void> allreduce_single_leader(CollArgs a, InterAlgo inter) {
  a.check();
  require_world(a);
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const int ppn = m.ppn();
  const int h = m.num_nodes();
  const std::size_t nbytes = a.bytes();

  if (ppn == 1) {
    // Degenerate hierarchy: every rank is its own leader.
    co_await inter_allreduce(std::move(a), inter);
    co_return;
  }

  const std::int64_t key = r.next_coll_key(a.comm->context());
  CollSlot& slot = r.node().slot(key);
  if (!slot.initialized) {
    // windows[0]: gather staging for the ppn-1 non-leader vectors;
    // windows[1]: the broadcast buffer holding the final result.
    slot.windows.emplace_back(static_cast<std::size_t>(ppn - 1) * nbytes,
                              m.socket_of_local(0), m.with_data());
    slot.windows.emplace_back(nbytes, m.socket_of_local(0), m.with_data());
    slot.latches.emplace_back(r.engine(), ppn - 1);
    slot.flags.emplace_back(r.engine());
    slot.initialized = true;
  }
  ShmWindow& gather = slot.windows[0];
  ShmWindow& result = slot.windows[1];
  sim::Latch& gathered = slot.latches[0];
  sim::Flag& published = slot.flags[0];

  if (r.local_rank() == 0) {
    co_await copy_in(a);  // leader's own contribution lands in recv
    co_await gathered.wait();
    co_await r.compute(m.collection_cost(0, 0, ppn));
    co_await r.reduce_compute(static_cast<std::size_t>(ppn - 1) * nbytes);
    if (gather.has_data() && !a.recv.empty()) {
      for (int i = 0; i < ppn - 1; ++i) {
        a.op.apply(a.dt, a.count, a.recv,
                   gather.data().subspan(static_cast<std::size_t>(i) * nbytes,
                                         nbytes));
      }
    }
    if (h > 1) {
      CollArgs ia = a;
      ia.comm = &m.leader_comm(0, 1);
      ia.send = {};
      ia.inplace = true;
      ia.tag_base = inner_tag_base(key);
      co_await inter_allreduce(std::move(ia), inter);
    }
    co_await r.shm_put(result, 0, nbytes, as_const(a.recv));
    co_await r.signal(published);
  } else {
    co_await r.shm_put(gather,
                       static_cast<std::size_t>(r.local_rank() - 1) * nbytes,
                       nbytes, input_of(a));
    co_await r.signal(gathered);
    co_await published.wait();
    co_await r.shm_get(result, 0, nbytes, a.recv);
  }
  r.node().release_slot(key, ppn);
}

sim::CoTask<void> allreduce_dpml(CollArgs a, DpmlParams params) {
  a.check();
  require_world(a);
  DPML_CHECK_MSG(params.pipeline_k >= 1, "pipeline_k must be >= 1");
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const int ppn = m.ppn();
  const int l = std::clamp(params.leaders, 1, ppn);
  const std::size_t esize = simmpi::dtype_size(a.dt);

  if (ppn == 1) {
    co_await inter_allreduce(std::move(a), params.inter);
    co_return;
  }

  const std::int64_t key = r.next_coll_key(a.comm->context());
  CollSlot& slot = r.node().slot(key);
  dpml_slot_init(r, slot, a.count, esize, l, ppn);
  // The allreduce is literally the composition the paper exploits:
  // data-partitioned multi-leader reduce-scatter (phases 1-3), then a
  // shared-memory allgather of every partition (phase 4).
  co_await dpml_reduce_scatter_phases(a, params, l, key, slot);
  co_await dpml_collect_range(a, slot, l, 0, a.count, a.recv);
  r.node().release_slot(key, ppn);
}

sim::CoTask<void> reduce_scatter_dpml(CollArgs a, DpmlParams params) {
  require_world(a);
  DPML_CHECK_MSG(params.pipeline_k >= 1, "pipeline_k must be >= 1");
  DPML_CHECK_MSG(!a.inplace,
                 "reduce_scatter/dpml does not support in-place");
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const int ppn = m.ppn();
  const int p = a.comm->size();
  const std::size_t esize = simmpi::dtype_size(a.dt);
  const std::size_t total = a.count * static_cast<std::size_t>(p);
  DPML_CHECK_MSG(a.send.empty() || a.send.size() == total * esize,
                 "reduce_scatter send buffer must span p blocks");
  DPML_CHECK_MSG(a.recv.empty() || a.recv.size() == a.bytes(),
                 "reduce_scatter recv buffer must span one block");

  if (ppn == 1) {
    // Degenerate hierarchy: flat order-aware dispatch.
    co_await reduce_scatter(std::move(a));
    co_return;
  }

  const int l = std::clamp(params.leaders, 1, ppn);
  const std::int64_t key = r.next_coll_key(a.comm->context());
  CollSlot& slot = r.node().slot(key);
  dpml_slot_init(r, slot, total, esize, l, ppn);
  // View the p per-rank blocks as one contiguous total-element vector for
  // the shared phases; only my block is collected out of the result
  // windows (the allreduce collects all of them).
  CollArgs full = a;
  full.count = total;
  full.recv = {};
  co_await dpml_reduce_scatter_phases(full, params, l, key, slot);
  const std::size_t me = static_cast<std::size_t>(r.world_rank());
  co_await dpml_collect_range(full, slot, l, me * a.count,
                              (me + 1) * a.count, a.recv);
  r.node().release_slot(key, ppn);
}

sim::CoTask<void> allgather_dpml(CollArgs a, DpmlParams params) {
  require_world(a);
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

  if (ppn == 1) {
    // Degenerate hierarchy: flat dispatch.
    co_await allgather(std::move(a));
    co_return;
  }

  const int l = std::clamp(params.leaders, 1, ppn);
  const std::int64_t key = r.next_coll_key(a.comm->context());
  CollSlot& slot = r.node().slot(key);
  // This node contributes ppn consecutive blocks of the global result;
  // partition that contribution across the l leaders.
  const std::size_t node_count = a.count * static_cast<std::size_t>(ppn);
  if (!slot.initialized) {
    // Per leader j: windows[2j] stages partition j of the node
    // contribution; windows[2j+1] holds that partition for all h nodes
    // after the leaders' inter-node exchange; flags[j] = result ready.
    for (int j = 0; j < l; ++j) {
      const Part pj = partition(node_count, l, j);
      const std::size_t pbytes = pj.count * esize;
      const int owner = m.socket_of_local(m.leader_local_rank(j, l));
      slot.windows.emplace_back(pbytes, owner, m.with_data());
      slot.windows.emplace_back(static_cast<std::size_t>(h) * pbytes, owner,
                                m.with_data());
      slot.flags.emplace_back(r.engine());
    }
    slot.latches.emplace_back(r.engine(), ppn);
    slot.initialized = true;
  }
  sim::Latch& gathered = slot.latches[0];

  // ---- Phase 1: write my block into the node-contribution stripes it
  // spans (a block can straddle a partition boundary when ppn % l != 0).
  const std::size_t my_lo = static_cast<std::size_t>(r.local_rank()) * a.count;
  for (int j = 0; j < l; ++j) {
    const Part pj = partition(node_count, l, j);
    const std::size_t lo = std::max(my_lo, pj.offset);
    const std::size_t hi = std::min(my_lo + a.count, pj.offset + pj.count);
    if (hi <= lo) continue;
    co_await r.shm_put(slot.windows[2 * j], (lo - pj.offset) * esize,
                       (hi - lo) * esize,
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
    co_await r.shm_get(slot.windows[2 * j], 0, pbytes, stripe);
    if (h > 1) {
      result_store = a.scratch(static_cast<std::size_t>(h) * pbytes);
      MutBytes result{result_store};
      CollArgs ia = a;
      ia.comm = &m.leader_comm(j, l);
      ia.count = pj.count;
      ia.send = as_const(stripe);
      ia.recv = result;
      ia.inplace = false;
      ia.tag_base = inner_tag_base(key);
      co_await allgather(std::move(ia));
      co_await r.shm_put(slot.windows[2 * j + 1], 0,
                         static_cast<std::size_t>(h) * pbytes,
                         as_const(result));
    } else {
      co_await r.shm_put(slot.windows[2 * j + 1], 0, pbytes,
                         as_const(stripe));
    }
    co_await r.signal(slot.flags[j]);
  }

  // ---- Phase 3: every rank copies each leader's h per-node pieces home;
  // node n's piece of partition j lands at element n*node_count + pj.offset
  // of the global result.
  for (int j = 0; j < l; ++j) {
    const Part pj = partition(node_count, l, j);
    const std::size_t pbytes = pj.count * esize;
    co_await slot.flags[j].wait();
    for (int n = 0; n < h; ++n) {
      co_await r.shm_get(
          slot.windows[2 * j + 1], static_cast<std::size_t>(n) * pbytes,
          pbytes,
          sub(a.recv,
              (static_cast<std::size_t>(n) * node_count + pj.offset) * esize,
              pbytes));
    }
  }
  r.node().release_slot(key, ppn);
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
    [](CollArgs a, const CollSpec& s) {
      DpmlParams p;
      p.leaders = s.leaders;
      p.pipeline_k = s.pipeline_k;
      p.inter = s.inter;
      return allreduce_dpml(std::move(a), p);
    },
}};

const CollRegistration reg_reduce_scatter_dpml{{
    "dpml",
    CollKind::reduce_scatter,
    CollCaps{.uses_leaders = true,
             .supports_pipelining = true,
             .world_only = true,
             .tunable = true},
    [](CollArgs a, const CollSpec& s) {
      DpmlParams p;
      p.leaders = s.leaders;
      p.pipeline_k = s.pipeline_k;
      p.inter = s.inter;
      return reduce_scatter_dpml(std::move(a), p);
    },
}};

const CollRegistration reg_allgather_dpml{{
    "dpml",
    CollKind::allgather,
    CollCaps{.uses_leaders = true, .world_only = true, .tunable = true},
    [](CollArgs a, const CollSpec& s) {
      DpmlParams p;
      p.leaders = s.leaders;
      return allgather_dpml(std::move(a), p);
    },
}};

}  // namespace

void link_dpml_collectives() {}

}  // namespace dpml::coll
