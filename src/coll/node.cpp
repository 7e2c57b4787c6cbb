#include "coll/node.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "coll/reduce.hpp"
#include "sharp/sharp.hpp"
#include "util/error.hpp"

namespace dpml::coll {

using simmpi::CollSlot;
using simmpi::Machine;
using simmpi::ShmWindow;

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

ConstBytes input_of(const CollArgs& a) {
  return a.inplace ? as_const(a.recv) : a.send;
}

}  // namespace

void require_world(const CollArgs& a) {
  DPML_CHECK_MSG(a.rank != nullptr && a.comm != nullptr,
                 "CollArgs missing rank/comm");
  DPML_CHECK_MSG(a.comm->context() == a.rank->machine().world().context(),
                 "hierarchical collective designs run on the world "
                 "communicator (leaders are per-node entities)");
}

NodeSlot::NodeSlot(const CollArgs& a)
    : rank_(a.rank),
      key_(a.rank->next_coll_key(a.comm->context())),
      slot_(&a.rank->node().slot(key_)) {}

void NodeSlot::release() {
  rank_->node().release_slot(key_, rank_->machine().ppn());
}

NodeSlot claim_leader_groups(const CollArgs& a, int span, std::size_t bytes,
                             unsigned parts) {
  NodeSlot slot(a);
  CollSlot& s = *slot;
  if (s.initialized) return slot;
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const int ppn = m.ppn();
  const auto groups = static_cast<std::size_t>(ceil_div(ppn, span));
  const bool windows = (parts & (kStaging | kResult)) != 0;
  if (windows) s.windows.reserve(2 * groups);
  if (parts & kArrivals) s.latches.reserve(groups);
  if (parts & kPublished) s.flags.reserve(groups);
  for (int lo = 0; lo < ppn; lo += span) {
    const int members = std::min(span, ppn - lo);
    const int socket = m.socket_of_local(lo);
    if (windows) {
      s.windows.emplace_back(
          (parts & kStaging) ? static_cast<std::size_t>(members - 1) * bytes
                             : 0,
          socket, m.with_data());
      s.windows.emplace_back((parts & kResult) ? bytes : 0, socket,
                             m.with_data());
    }
    if (parts & kArrivals) s.latches.emplace_back(r.engine(), members - 1);
    if (parts & kPublished) s.flags.emplace_back(r.engine());
  }
  s.initialized = true;
  return slot;
}

NodeSlot claim_partitions(const CollArgs& a, std::size_t count, int l,
                          int stage_copies, int result_copies) {
  NodeSlot slot(a);
  CollSlot& s = *slot;
  if (s.initialized) return slot;
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const std::size_t esize = simmpi::dtype_size(a.dt);
  s.windows.reserve(2 * static_cast<std::size_t>(l));
  s.flags.reserve(static_cast<std::size_t>(l));
  s.latches.reserve(1);
  for (int j = 0; j < l; ++j) {
    const std::size_t pbytes = partition(count, l, j).count * esize;
    const int owner = m.socket_of_local(m.leader_local_rank(j, l));
    s.windows.emplace_back(static_cast<std::size_t>(stage_copies) * pbytes,
                           owner, m.with_data());
    s.windows.emplace_back(static_cast<std::size_t>(result_copies) * pbytes,
                           owner, m.with_data());
    s.flags.emplace_back(r.engine());
  }
  s.latches.emplace_back(r.engine(), m.ppn());
  s.initialized = true;
  return slot;
}

sim::CoTask<void> leader_allreduce(CollArgs a, InterAlgo inter,
                                   sharp::SharpFabric* fabric,
                                   bool per_socket) {
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const int ppn = m.ppn();
  if (ppn == 1) {
    // Degenerate hierarchy: every rank is its own leader (and a port of the
    // in-network designs).
    if (fabric == nullptr) {
      co_await inter_allreduce(std::move(a), inter);
      co_return;
    }
    const sharp::Group& g =
        fabric->named_group("all_ranks", m.world().ranks());
    co_await copy_in(a);
    co_await fabric->allreduce(r, g, a.count, a.dt, a.op, as_const(a.recv),
                               a.recv);
    co_return;
  }

  const std::size_t nbytes = a.bytes();
  const int span = per_socket ? ceil_div(ppn, m.config().node.sockets) : ppn;
  const int g = r.local_rank() / span;
  const int lo = g * span;  // the group's leader
  const int members = std::min(span, ppn - lo);
  NodeSlot slot = claim_leader_groups(
      a, span, nbytes, kStaging | kResult | kArrivals | kPublished);
  ShmWindow& gather = slot->windows[static_cast<std::size_t>(2 * g)];
  ShmWindow& result = slot->windows[static_cast<std::size_t>(2 * g + 1)];

  if (r.local_rank() == lo) {
    co_await copy_in(a);  // the leader's own contribution lands in recv
    co_await slot->latches[static_cast<std::size_t>(g)].wait();
    // A node leader polls both sockets, half its contributors across the
    // socket link (the paper's §4.3 bottleneck); a socket leader polls
    // only its own socket.
    co_await r.compute(m.collection_cost(lo, lo, lo + members));
    co_await r.reduce_compute(static_cast<std::size_t>(members - 1) * nbytes);
    if (gather.has_data() && !a.recv.empty()) {
      for (int i = 0; i < members - 1; ++i) {
        a.op.apply(a.dt, a.count, a.recv,
                   gather.data().subspan(static_cast<std::size_t>(i) * nbytes,
                                         nbytes));
      }
    }
    if (fabric != nullptr) {
      const sharp::Group& leaders =
          per_socket ? fabric->named_group("socket_leaders", m.socket_leaders())
                     : fabric->named_group("node_leaders",
                                           m.leader_comm(0, 1).ranks());
      co_await fabric->allreduce(r, leaders, a.count, a.dt, a.op,
                                 as_const(a.recv), a.recv);
    } else if (m.num_nodes() > 1) {
      CollArgs ia = a;
      ia.comm = &m.leader_comm(0, 1);
      ia.send = {};
      ia.inplace = true;
      ia.tag_base = slot.tag_base();
      co_await inter_allreduce(std::move(ia), inter);
    }
    co_await r.shm_put(result, 0, nbytes, as_const(a.recv));
    co_await r.signal(slot->flags[static_cast<std::size_t>(g)]);
  } else {
    co_await r.shm_put(
        gather, static_cast<std::size_t>(r.local_rank() - lo - 1) * nbytes,
        nbytes, input_of(a));
    co_await r.signal(slot->latches[static_cast<std::size_t>(g)]);
    co_await slot->flags[static_cast<std::size_t>(g)].wait();
    co_await r.shm_get(result, 0, nbytes, a.recv);
  }
  slot.release();
}

sim::CoTask<void> dpml_reduce(CollArgs a, int l, int k, InterAlgo inter,
                              int root_node, std::size_t lo, std::size_t hi) {
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const int ppn = m.ppn();
  const std::size_t esize = simmpi::dtype_size(a.dt);
  NodeSlot slot = claim_partitions(a, a.count, l, ppn, 1);
  sim::Latch& staged = slot->latches[0];

  // ---- Phase 1: partition the input and copy each piece into its
  // leader's staging window.
  const ConstBytes input = input_of(a);
  for (int j = 0; j < l; ++j) {
    const Part pj = partition(a.count, l, j);
    const std::size_t pbytes = pj.count * esize;
    co_await r.shm_put(slot->windows[static_cast<std::size_t>(2 * j)],
                       static_cast<std::size_t>(r.local_rank()) * pbytes,
                       pbytes, sub(input, pj.offset * esize, pbytes));
  }
  co_await r.signal(staged);

  const int j = m.leader_index_of_local(r.local_rank(), l);
  sim::ScratchBuffer part_store;
  if (j >= 0) {
    const Part pj = partition(a.count, l, j);
    const std::size_t pbytes = pj.count * esize;
    ShmWindow& gather = slot->windows[static_cast<std::size_t>(2 * j)];

    // ---- Phase 2: fold the ppn stripes of partition j in parallel with
    // the other leaders. The leader pays a per-contributor collection cost
    // (the stripes were written by every local rank, both sockets).
    co_await staged.wait();
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

    // ---- Phase 3: the leader groups' concurrent inter-node stages.
    if (m.num_nodes() > 1) {
      CollArgs ia = a;
      ia.comm = &m.leader_comm(j, l);
      ia.count = pj.count;
      ia.send = {};
      ia.recv = part;
      ia.inplace = true;
      ia.tag_base = slot.tag_base();
      if (root_node >= 0) {
        ia.root = root_node;  // leader comms are ordered by node id
        co_await reduce_binomial(std::move(ia));
      } else if (k == 1) {
        co_await inter_allreduce(std::move(ia), inter);
      } else {
        // DPML-Pipelined: k concurrent non-blocking sub-allreduces.
        std::vector<std::shared_ptr<sim::Flag>> pending;
        pending.reserve(static_cast<std::size_t>(k));
        for (int q = 0; q < k; ++q) {
          const Part cq = partition(pj.count, k, q);
          CollArgs ca = ia;
          ca.count = cq.count;
          ca.recv = sub(part, cq.offset * esize, cq.count * esize);
          ca.tag_base += q * 128;
          pending.push_back(
              r.engine().spawn_sub(inter_allreduce(std::move(ca), inter)));
        }
        co_await sim::wait_all(std::move(pending));
      }
    }

    // Publish the reduced partition for the collection phase.
    if (root_node < 0 || r.node_id() == root_node) {
      co_await r.shm_put(slot->windows[static_cast<std::size_t>(2 * j + 1)],
                         0, pbytes, as_const(part));
      co_await r.signal(slot->flags[static_cast<std::size_t>(j)]);
    }
  }

  // ---- Phase 4: copy [lo, hi) out of the result windows. A partition
  // inside the range is visited even when empty, so a full-range collect
  // waits on every leader's flag.
  if (root_node < 0 || r.world_rank() == a.comm->world_rank(a.root)) {
    for (int i = 0; i < l; ++i) {
      const Part pi = partition(a.count, l, i);
      const std::size_t from = std::max(lo, pi.offset);
      const std::size_t to = std::min(hi, pi.offset + pi.count);
      const bool inside = lo <= pi.offset && pi.offset + pi.count <= hi;
      if (to < from || (to == from && !inside)) continue;
      const std::size_t nbytes = (to - from) * esize;
      co_await slot->flags[static_cast<std::size_t>(i)].wait();
      co_await r.shm_get(slot->windows[static_cast<std::size_t>(2 * i + 1)],
                         (from - pi.offset) * esize, nbytes,
                         sub(a.recv, (from - lo) * esize, nbytes));
    }
  }
  slot.release();
}

}  // namespace dpml::coll
