#include "coll/reduce.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "coll/node.hpp"
#include "coll/ring.hpp"

namespace dpml::coll {

using simmpi::Machine;
using simmpi::ShmWindow;

namespace {

// The local accumulator. In place every rank's input already sits in recv
// (the convention the hierarchical designs use internally), so recv is the
// accumulator. Otherwise the root accumulates into recv and other ranks
// into `store`; copy_in(a, acc) then charges the initial copy.
MutBytes accumulator(const CollArgs& a, bool am_root,
                     sim::ScratchBuffer& store) {
  if (a.inplace || am_root) return a.recv;
  store = a.scratch(a.bytes());
  return MutBytes{store};
}

}  // namespace

sim::CoTask<void> reduce(CollArgs a) {
  if (a.bytes() <= 8 * 1024) return reduce_binomial(std::move(a));
  return reduce_rsa_gather(std::move(a));
}

sim::CoTask<void> reduce_binomial(CollArgs a) {
  check_args(CollKind::reduce, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t nbytes = a.bytes();
  const bool am_root = me == a.root;
  sim::ScratchBuffer acc_store;
  const MutBytes acc = accumulator(a, am_root, acc_store);
  co_await copy_in(a, acc);
  if (p == 1) co_return;
  auto tmp_store = a.scratch(nbytes);
  MutBytes tmp{tmp_store};
  // The usual vrank rotation makes the root the tree head but folds wrapped
  // rank blocks out of order. Non-commutative ops with root != 0 instead run
  // the tree in natural comm-rank order toward rank 0 (every fold is then
  // acc (op) later-block) and forward the result to the root afterwards.
  const bool rotate = a.op.commutative() || a.root == 0;
  const int vrank = rotate ? (me - a.root + p) % p : me;
  auto actual = [&](int v) { return rotate ? (v + a.root) % p : v; };

  int step = 0;
  for (int mask = 1; mask < p; mask <<= 1, ++step) {
    if (vrank & mask) {
      co_await r.send(c, actual(vrank - mask), a.tag_base + step, nbytes,
                      as_const(acc));
      break;
    }
    if (vrank + mask < p) {
      co_await r.recv(c, actual(vrank + mask), a.tag_base + step, nbytes, tmp);
      co_await r.reduce_compute(nbytes);
      a.op.apply(a.dt, a.count, acc, as_const(tmp));
    }
  }
  if (!rotate) {
    if (me == 0) {
      co_await r.send(c, a.root, a.tag_base + 60, nbytes, as_const(acc));
    } else if (am_root) {
      co_await r.recv(c, 0, a.tag_base + 60, nbytes, acc);
    }
  }
}

sim::CoTask<void> reduce_rsa_gather(CollArgs a) {
  check_args(CollKind::reduce, a);
  // The ring reduce-scatter folds each block in rotation order, which cannot
  // preserve ascending comm-rank operand order. MPICH-style fallback.
  if (!a.op.commutative()) {
    co_await reduce_binomial(std::move(a));
    co_return;
  }
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t esize = simmpi::dtype_size(a.dt);
  const bool am_root = me == a.root;
  sim::ScratchBuffer acc_store;
  const MutBytes acc = accumulator(a, am_root, acc_store);
  co_await copy_in(a, acc);
  if (p == 1) co_return;
  auto tmp_store = a.scratch(partition(a.count, p, 0).count * esize);
  const MutBytes tmp{tmp_store};
  const PartBlocks blocks{a.count, p, esize};
  co_await ring_reduce_scatter(a, ring_pos(p, me, me), a.tag_base, acc, tmp,
                               blocks);

  // Gather the reduced blocks at the root, which accumulated into recv:
  // rank src holds block src+1 after the ring phase.
  if (am_root) {
    std::vector<std::shared_ptr<sim::Flag>> pending;
    for (int src = 0; src < p; ++src) {
      if (src == me) continue;
      const Block pb = blocks((src + 1) % p);
      auto h = r.irecv(c, src, a.tag_base + 1, pb.bytes,
                       sub(a.recv, pb.offset, pb.bytes));
      pending.push_back(h.done);
    }
    co_await sim::wait_all(std::move(pending));
  } else {
    const Block mine = blocks((me + 1) % p);
    co_await r.send(c, a.root, a.tag_base + 1, mine.bytes,
                    sub(as_const(acc), mine.offset, mine.bytes));
  }
}

sim::CoTask<void> reduce_single_leader(CollArgs a) {
  check_args(CollKind::reduce, a);
  require_world(a);
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const int ppn = m.ppn();
  if (ppn == 1) {
    co_await reduce_binomial(std::move(a));
    co_return;
  }
  const Comm& c = *a.comm;
  const int root_world = c.world_rank(a.root);
  const int root_node = root_world / ppn;
  const int h = m.num_nodes();
  const std::size_t nbytes = a.bytes();
  const bool is_leader = r.local_rank() == 0;
  const bool am_root = r.world_rank() == root_world;
  NodeSlot slot = claim_leader_groups(a, ppn, nbytes, kStaging | kArrivals);
  ShmWindow& gather = slot->windows[0];

  if (is_leader) {
    sim::ScratchBuffer acc_store;
    // The leader accumulates into recv only when it is also the root.
    const MutBytes acc = accumulator(a, am_root, acc_store);
    co_await copy_in(a, acc);
    co_await slot->latches[0].wait();
    co_await r.compute(m.collection_cost(0, 0, ppn));
    co_await r.reduce_compute(static_cast<std::size_t>(ppn - 1) * nbytes);
    if (gather.has_data() && !acc.empty()) {
      for (int i = 0; i < ppn - 1; ++i) {
        a.op.apply(a.dt, a.count, acc,
                   gather.data().subspan(static_cast<std::size_t>(i) * nbytes,
                                         nbytes));
      }
    }
    if (h > 1) {
      CollArgs ia = a;
      ia.comm = &m.leader_comm(0, 1);
      ia.root = root_node;
      ia.send = {};
      ia.recv = acc;
      ia.inplace = true;
      ia.tag_base = slot.tag_base();
      co_await reduce_binomial(std::move(ia));
    }
    if (r.node_id() == root_node && !am_root) {
      co_await r.send(c, a.root, a.tag_base + 7, nbytes, as_const(acc));
    }
  } else {
    // In-place input is in recv on EVERY rank (see accumulator), not just
    // the root; reading send here striped empty buffers in data mode.
    co_await r.shm_put(gather,
                       static_cast<std::size_t>(r.local_rank() - 1) * nbytes,
                       nbytes, a.inplace ? as_const(a.recv) : a.send);
    co_await r.signal(slot->latches[0]);
    if (am_root) {
      co_await r.recv(c, c.rank_of_world(r.node_id() * ppn), a.tag_base + 7,
                      nbytes, a.recv);
    }
  }
  slot.release();
}

sim::CoTask<void> reduce_dpml(CollArgs a, CollSpec spec) {
  check_args(CollKind::reduce, a);
  require_world(a);
  const int ppn = a.rank->machine().ppn();
  if (ppn == 1) return reduce_binomial(std::move(a));
  const int root_node = a.comm->world_rank(a.root) / ppn;
  const std::size_t count = a.count;
  return dpml_reduce(std::move(a), std::clamp(spec.leaders, 1, ppn), 1,
                     spec.inter, root_node, 0, count);
}

// ---- Registry entries ----

namespace {

const CollRegistration reg_reduce_binomial{plain_desc(
    "binomial", CollKind::reduce, reduce_binomial, CollCaps{.tunable = true})};
const CollRegistration reg_reduce_rsa{
    plain_desc("rsa-gather", CollKind::reduce, reduce_rsa_gather,
               CollCaps{.tunable = true})};
const CollRegistration reg_reduce_single_leader{
    plain_desc("single-leader", CollKind::reduce, reduce_single_leader,
               CollCaps{.world_only = true, .tunable = true})};
const CollRegistration reg_reduce_dpml{{
    "dpml",
    CollKind::reduce,
    CollCaps{.uses_leaders = true, .world_only = true, .tunable = true},
    reduce_dpml,
}};
const CollRegistration reg_reduce_auto{
    plain_desc("auto", CollKind::reduce, reduce)};

}  // namespace

void link_reduce_collectives() {}

}  // namespace dpml::coll
