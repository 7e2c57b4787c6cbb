#include "coll/bcast.hpp"

#include <algorithm>
#include <utility>

#include "coll/node.hpp"
#include "coll/registry.hpp"
#include "coll/ring.hpp"
#include "sharp/sharp.hpp"

namespace dpml::coll {

using simmpi::Machine;

sim::CoTask<void> bcast(CollArgs a) {
  if (a.bytes() <= 8 * 1024) return bcast_binomial(std::move(a));
  return bcast_scatter_allgather(std::move(a));
}

sim::CoTask<void> bcast_binomial(CollArgs a) {
  check_args(CollKind::bcast, a);
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
  check_args(CollKind::bcast, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  if (p == 1) co_return;
  const int vrank = (me - a.root + p) % p;
  auto actual = [&](int v) { return (v + a.root) % p; };
  const PartBlocks blocks{a.bytes(), p, 1};
  // Byte extent of blocks [first, last).
  auto extent = [&](int first, int last) {
    const std::size_t lo = blocks(first).offset;
    const Block end = blocks(last - 1);
    return Block{lo, end.offset + end.bytes - lo};
  };

  // Binomial scatter: after this, vrank v holds block v.
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const Block in = extent(vrank, std::min(vrank + mask, p));
      co_await r.recv(c, actual(vrank - mask), a.tag_base + 1, in.bytes,
                      sub(a.recv, in.offset, in.bytes));
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vrank + mask < p) {
      const Block out = extent(vrank + mask, std::min(vrank + 2 * mask, p));
      co_await r.send(c, actual(vrank + mask), a.tag_base + 1, out.bytes,
                      sub(as_const(a.recv), out.offset, out.bytes));
    }
  }

  // Ring allgather of the p blocks, on the ring of vranks.
  const RingPos ring{p, actual((vrank + p - 1) % p), actual((vrank + 1) % p),
                     vrank};
  co_await ring_allgather(r, c, ring, a.tag_base + 2, a.recv, blocks);
}

sim::CoTask<void> bcast_single_leader(CollArgs a,
                                      sharp::SharpFabric* fabric) {
  check_args(CollKind::bcast, a);
  require_world(a);
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const Comm& c = *a.comm;
  const int ppn = m.ppn();
  const std::size_t nbytes = a.bytes();
  if (fabric != nullptr && !fabric->supports(nbytes)) fabric = nullptr;
  if (ppn == 1) {
    if (fabric == nullptr) {
      co_await bcast_binomial(std::move(a));
    } else {
      const sharp::Group& g =
          fabric->named_group("all_ranks", m.world().ranks());
      co_await fabric->bcast(r, g, c.world_rank(a.root), nbytes, a.recv);
    }
    co_return;
  }
  const int root_node = c.world_rank(a.root) / ppn;
  const int root_local = c.world_rank(a.root) % ppn;
  const bool is_leader = r.local_rank() == 0;
  NodeSlot slot = claim_leader_groups(a, ppn, nbytes, kResult | kPublished);
  simmpi::ShmWindow& result = slot->windows[1];

  // Get the payload to the root node's leader.
  if (r.world_rank() == c.world_rank(a.root) && root_local != 0) {
    co_await r.send(c, c.rank_of_world(root_node * ppn), a.tag_base + 3,
                    nbytes, as_const(a.recv));
  }
  if (is_leader) {
    if (r.node_id() == root_node && root_local != 0) {
      co_await r.recv(c, a.root, a.tag_base + 3, nbytes, a.recv);
    }
    const Comm& leaders = m.leader_comm(0, 1);
    if (fabric != nullptr) {
      const sharp::Group& g = fabric->named_group("node_leaders",
                                                  leaders.ranks());
      co_await fabric->bcast(r, g, root_node * ppn, nbytes, a.recv);
    } else {
      // Inter-node binomial bcast among node leaders.
      CollArgs la = a;
      la.comm = &leaders;
      la.root = root_node;
      la.tag_base = slot.tag_base();
      co_await bcast_binomial(la);
    }
    co_await r.shm_put(result, 0, nbytes, as_const(a.recv));
    co_await r.signal(slot->flags[0]);
  } else {
    co_await slot->flags[0].wait();
    if (r.world_rank() != c.world_rank(a.root)) {
      co_await r.shm_get(result, 0, nbytes, a.recv);
    }
  }
  slot.release();
}

// ---- Registry entries ----

namespace {

const CollRegistration reg_bcast_binomial{plain_desc(
    "binomial", CollKind::bcast, bcast_binomial, CollCaps{.tunable = true})};
const CollRegistration reg_bcast_sag{
    plain_desc("scatter-allgather", CollKind::bcast, bcast_scatter_allgather,
               CollCaps{.tunable = true})};
const CollRegistration reg_bcast_single_leader{{
    "single-leader",
    CollKind::bcast,
    CollCaps{.world_only = true, .tunable = true},
    [](CollArgs a, const CollSpec&) {
      return bcast_single_leader(std::move(a));
    },
}};
const CollRegistration reg_bcast_auto{
    plain_desc("auto", CollKind::bcast, bcast)};

}  // namespace

void link_bcast_collectives() {}

}  // namespace dpml::coll
