#include "coll/bcast.hpp"

#include <utility>

#include "coll/registry.hpp"
#include "util/error.hpp"

namespace dpml::coll {

using simmpi::CollSlot;
using simmpi::Machine;
using simmpi::ShmWindow;

void check_bcast(const CollArgs& a) {
  DPML_CHECK_MSG(a.rank != nullptr && a.comm != nullptr,
                 "bcast CollArgs missing rank/comm");
  DPML_CHECK(a.root >= 0 && a.root < a.comm->size());
  DPML_CHECK_MSG(a.recv.empty() || a.recv.size() == a.bytes(),
                 "bcast buffer size mismatch");
  if (a.rank->machine().with_data()) {
    DPML_CHECK_MSG(!a.recv.empty() || a.bytes() == 0,
                   "data-mode bcast requires a buffer");
  }
}

sim::CoTask<void> bcast(CollArgs a) {
  if (a.bytes() <= 8 * 1024) return bcast_binomial(std::move(a));
  return bcast_scatter_allgather(std::move(a));
}

sim::CoTask<void> bcast_binomial(CollArgs a) {
  check_bcast(a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  if (p == 1) co_return;
  const std::size_t nbytes = a.bytes();
  const int vrank = (me - a.root + p) % p;
  auto actual = [&](int v) { return (v + a.root) % p; };

  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      co_await r.recv(c, actual(vrank - mask), a.tag_base, nbytes, a.recv);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) {
      co_await r.send(c, actual(vrank + mask), a.tag_base, nbytes,
                      as_const(a.recv));
    }
    mask >>= 1;
  }
}

sim::CoTask<void> bcast_scatter_allgather(CollArgs a) {
  check_bcast(a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  if (p == 1) co_return;
  const std::size_t nbytes = a.bytes();
  const int vrank = (me - a.root + p) % p;
  auto actual = [&](int v) { return (v + a.root) % p; };
  // Byte range of blocks [first, last).
  auto range_begin = [&](int block) {
    return partition(nbytes, p, block).offset;
  };
  auto range_end = [&](int block) {
    const Part pb = partition(nbytes, p, block);
    return pb.offset + pb.count;
  };

  // Binomial scatter: after this, vrank v holds block v.
  {
    int mask = 1;
    while (mask < p) {
      if (vrank & mask) {
        const int first = vrank;
        const int last = std::min(vrank + mask, p);
        const std::size_t lo = range_begin(first);
        const std::size_t hi = range_end(last - 1);
        co_await r.recv(c, actual(vrank - mask), a.tag_base + 1, hi - lo,
                        sub(a.recv, lo, hi - lo));
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vrank + mask < p) {
        const int first = vrank + mask;
        const int last = std::min(vrank + 2 * mask, p);
        const std::size_t lo = range_begin(first);
        const std::size_t hi = range_end(last - 1);
        co_await r.send(c, actual(vrank + mask), a.tag_base + 1, hi - lo,
                        sub(as_const(a.recv), lo, hi - lo));
      }
      mask >>= 1;
    }
  }

  // Ring allgather of the p blocks (in vrank space).
  const int next = actual((vrank + 1) % p);
  const int prev = actual((vrank + p - 1) % p);
  for (int s = 0; s < p - 1; ++s) {
    const int give = (vrank - s + p) % p;
    const int take = (vrank - s - 1 + p) % p;
    const std::size_t glo = range_begin(give);
    const std::size_t gbytes = range_end(give) - glo;
    const std::size_t tlo = range_begin(take);
    const std::size_t tbytes = range_end(take) - tlo;
    auto sf = r.isend(c, next, a.tag_base + 2, gbytes,
                      sub(as_const(a.recv), glo, gbytes));
    co_await r.recv(c, prev, a.tag_base + 2, tbytes, sub(a.recv, tlo, tbytes));
    co_await sf->wait();
  }
}

sim::CoTask<void> bcast_single_leader(CollArgs a) {
  check_bcast(a);
  Rank& r = *a.rank;
  Machine& m = r.machine();
  DPML_CHECK_MSG(a.comm->context() == m.world().context(),
                 "single-leader bcast runs on the world communicator");
  const int ppn = m.ppn();
  if (ppn == 1) {
    co_await bcast_binomial(std::move(a));
    co_return;
  }
  const Comm& c = *a.comm;
  const std::size_t nbytes = a.bytes();
  const int root_node = c.world_rank(a.root) / ppn;
  const int root_local = c.world_rank(a.root) % ppn;
  const bool is_leader = r.local_rank() == 0;

  const std::int64_t key = r.next_coll_key(c.context());
  CollSlot& slot = r.node().slot(key);
  if (!slot.initialized) {
    slot.windows.emplace_back(nbytes, m.socket_of_local(0), m.with_data());
    slot.flags.emplace_back(r.engine());
    slot.initialized = true;
  }

  // Get the payload to the root node's leader.
  if (r.world_rank() == c.world_rank(a.root) && root_local != 0) {
    co_await r.send(c, c.rank_of_world(root_node * ppn), a.tag_base + 3,
                    nbytes, as_const(a.recv));
  }
  if (is_leader) {
    if (r.node_id() == root_node && root_local != 0) {
      co_await r.recv(c, a.root, a.tag_base + 3, nbytes, a.recv);
    }
    // Inter-node binomial bcast among node leaders.
    CollArgs la = a;
    la.comm = &m.leader_comm(0, 1);
    la.root = root_node;
    la.tag_base = static_cast<int>((key & 0x3ff)) * 2048;
    co_await bcast_binomial(la);
    co_await r.shm_put(slot.windows[0], 0, nbytes, as_const(a.recv));
    co_await r.signal(slot.flags[0]);
  } else {
    co_await slot.flags[0].wait();
    if (r.world_rank() != c.world_rank(a.root)) {
      co_await r.shm_get(slot.windows[0], 0, nbytes, a.recv);
    }
  }
  r.node().release_slot(key, ppn);
}

// ---- Registry entries ----

namespace {

const CollRegistration reg_bcast_binomial{plain_desc(
    "binomial", CollKind::bcast, bcast_binomial, CollCaps{.tunable = true})};
const CollRegistration reg_bcast_sag{
    plain_desc("scatter-allgather", CollKind::bcast, bcast_scatter_allgather,
               CollCaps{.tunable = true})};
const CollRegistration reg_bcast_single_leader{
    plain_desc("single-leader", CollKind::bcast, bcast_single_leader,
               CollCaps{.world_only = true, .tunable = true})};
const CollRegistration reg_bcast_auto{
    plain_desc("auto", CollKind::bcast, bcast)};

}  // namespace

void link_bcast_collectives() {}

}  // namespace dpml::coll
