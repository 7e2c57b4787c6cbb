// Gather, scatter, allgather, reduce_scatter and barrier designs. The
// binomial gather and scatter run on the tree passes (coll/tree.hpp), the
// ring allgather and reduce_scatter on the ring passes (coll/ring.hpp) and
// the rd allgather on the hypercube's doubling pass (coll/butterfly.hpp).
#include "coll/group_coll.hpp"

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "coll/butterfly.hpp"
#include "coll/node.hpp"
#include "coll/reduce.hpp"
#include "coll/registry.hpp"
#include "coll/ring.hpp"
#include "coll/tree.hpp"
#include "sharp/sharp.hpp"
#include "util/error.hpp"

namespace dpml::coll {

using simmpi::Machine;

// ---------------------------------------------------------------------------
// Gather

sim::CoTask<void> gather(CollArgs a) {
  // Small trees gain nothing from forwarding; the root link is the
  // bottleneck either way, and linear saves the intermediate hops.
  if (a.comm->size() <= 4) return gather_linear(std::move(a));
  return gather_binomial(std::move(a));
}

sim::CoTask<void> gather_linear(CollArgs a) {
  check_args(CollKind::gather, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t bb = a.bytes();
  if (me == a.root) {
    std::vector<std::shared_ptr<sim::Flag>> pending;
    for (int src = 0; src < p; ++src) {
      if (src == me) continue;
      auto h = r.irecv(c, src, a.tag_base, bb,
                       sub(a.recv, static_cast<std::size_t>(src) * bb,
                           a.recv.empty() ? 0 : bb));
      pending.push_back(h.done);
    }
    co_await local_copy(r, bb,
                        sub(a.recv, static_cast<std::size_t>(me) * bb, bb),
                        a.send);
    co_await sim::wait_all(std::move(pending));
  } else {
    co_await r.send(c, a.root, a.tag_base, bb, a.send);
  }
}

sim::CoTask<void> gather_binomial(CollArgs a) {
  check_args(CollKind::gather, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t bb = a.bytes();
  const TreePos t = tree_pos(p, me, a.root);
  // Stage my subtree's blocks in vrank order, my own first, and forward
  // them to my parent.
  const HeldBlocks held{t.vrank, bb};
  auto stage = a.scratch(t.subtree(held, t.vrank, t.level).bytes);
  const MutBytes stageb{stage};
  if (!stage.empty() && !a.send.empty()) {
    std::memcpy(stage.data(), a.send.data(), bb);
  }
  co_await tree_up(a, t, a.tag_base, stageb, held);

  if (t.vrank == 0 && !a.recv.empty() && !stage.empty()) {
    // Unrotate from vrank space into comm-rank order.
    for (int v = 0; v < p; ++v) {
      std::memcpy(a.recv.data() + static_cast<std::size_t>(t.rank(v)) * bb,
                  stage.data() + static_cast<std::size_t>(v) * bb, bb);
    }
  }
}

// ---------------------------------------------------------------------------
// Scatter

sim::CoTask<void> scatter(CollArgs a) {
  if (a.comm->size() <= 4) return scatter_linear(std::move(a));
  return scatter_binomial(std::move(a));
}

sim::CoTask<void> scatter_linear(CollArgs a) {
  check_args(CollKind::scatter, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t bb = a.bytes();
  if (me == a.root) {
    std::vector<std::shared_ptr<sim::Flag>> pending;
    for (int dst = 0; dst < p; ++dst) {
      if (dst == me) continue;
      pending.push_back(
          r.isend(c, dst, a.tag_base, bb,
                  sub(a.send, static_cast<std::size_t>(dst) * bb,
                      a.send.empty() ? 0 : bb)));
    }
    co_await local_copy(r, bb, a.recv,
                        sub(a.send, static_cast<std::size_t>(me) * bb, bb));
    co_await sim::wait_all(std::move(pending));
  } else {
    co_await r.recv(c, a.root, a.tag_base, bb, a.recv);
  }
}

sim::CoTask<void> scatter_binomial(CollArgs a) {
  check_args(CollKind::scatter, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t bb = a.bytes();
  const TreePos t = tree_pos(p, me, a.root);
  // Stage my subtree's blocks in vrank order, my own first: the root
  // rotates the whole send buffer in.
  const HeldBlocks held{t.vrank, bb};
  auto stage = a.scratch(t.subtree(held, t.vrank, t.level).bytes);
  const MutBytes stageb{stage};
  if (t.vrank == 0 && !stage.empty() && !a.send.empty()) {
    for (int v = 0; v < p; ++v) {
      std::memcpy(stage.data() + static_cast<std::size_t>(v) * bb,
                  a.send.data() + static_cast<std::size_t>(t.rank(v)) * bb,
                  bb);
    }
  }
  co_await tree_down(r, c, t, a.tag_base, stageb, held);
  if (!a.recv.empty() && !stage.empty()) {
    std::memcpy(a.recv.data(), stage.data(), bb);
  }
}

// ---------------------------------------------------------------------------
// Allgather

namespace {

// Charge my block's copy into place in recv; in place it is already home
// and only the charge stays.
sim::Engine::DelayAwaiter allgather_copy_own(const CollArgs& a, int me) {
  const std::size_t bb = a.bytes();
  return local_copy(*a.rank, bb,
                    sub(a.recv, static_cast<std::size_t>(me) * bb, bb),
                    a.inplace ? ConstBytes{} : a.send);
}

}  // namespace

sim::CoTask<void> allgather(CollArgs a) {
  if (a.bytes() * static_cast<std::size_t>(a.comm->size()) <= 32 * 1024) {
    return allgather_rd(std::move(a));
  }
  return allgather_ring(std::move(a));
}

sim::CoTask<void> allgather_ring(CollArgs a) {
  check_args(CollKind::allgather, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  co_await allgather_copy_own(a, me);
  const PartBlocks blocks{a.count * static_cast<std::size_t>(p), p,
                          simmpi::dtype_size(a.dt)};
  co_await ring_allgather(r, c, ring_pos(p, me, me), a.tag_base, a.recv,
                          blocks);
}

sim::CoTask<void> allgather_rd(CollArgs a) {
  check_args(CollKind::allgather, a);
  const int me = a.comm->rank_of_world(a.rank->world_rank());
  if (me < 0) co_return;
  const CubePos cube = cube_pos(a.comm->size(), me);
  if (cube.rem != 0) {
    // Non-power-of-two: fall back to the ring (documented behaviour).
    co_await allgather_ring(std::move(a));
    co_return;
  }
  co_await allgather_copy_own(a, me);
  const HeldBlocks blocks{0, a.bytes()};
  co_await cube_doubling(a, cube, a.tag_base + 1, a.recv, blocks);
}

// ---------------------------------------------------------------------------
// Reduce-scatter

sim::CoTask<void> reduce_scatter(CollArgs a) {
  if (a.op.commutative()) return reduce_scatter_ring(std::move(a));
  return reduce_scatter_reduce_then_scatter(std::move(a));
}

sim::CoTask<void> reduce_scatter_reduce_then_scatter(CollArgs a) {
  check_args(CollKind::reduce_scatter, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t bbytes = a.bytes();

  if (p == 1) {
    co_await local_copy(r, bbytes, a.recv, a.send);
    co_return;
  }

  // Rooted binomial reduce of the full vector to comm rank 0 — with root 0
  // the tree folds in natural comm-rank order, so non-commutative ops are
  // safe — then a binomial scatter of the reduced blocks. The scatter tag
  // space (+64) stays clear of the reduce's step tags.
  sim::ScratchBuffer full;
  if (me == 0) full = a.scratch(static_cast<std::size_t>(p) * bbytes);
  CollArgs ra = a;
  ra.root = 0;
  ra.count = a.count * static_cast<std::size_t>(p);
  ra.recv = MutBytes{full};
  co_await reduce_binomial(std::move(ra));

  CollArgs sa = a;
  sa.root = 0;
  sa.send = ConstBytes{full};
  sa.tag_base = a.tag_base + 64;
  co_await scatter_binomial(std::move(sa));
}

sim::CoTask<void> reduce_scatter_ring(CollArgs a) {
  check_args(CollKind::reduce_scatter, a);
  // The ring folds each block in rotation order, which cannot preserve
  // ascending comm-rank operand order. MPICH-style fallback.
  if (!a.op.commutative()) {
    co_await reduce_scatter_reduce_then_scatter(std::move(a));
    co_return;
  }
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t bbytes = a.bytes();

  if (p == 1) {
    co_await local_copy(r, bbytes, a.recv, a.send);
    co_return;
  }

  // Reduce in place on a private copy of the input's p blocks.
  const std::size_t total = static_cast<std::size_t>(p) * bbytes;
  auto work = a.scratch(total);
  const MutBytes workb{work};
  co_await local_copy(r, total, workb, a.send);
  auto tmp_store = a.scratch(bbytes);
  const MutBytes tmp{tmp_store};
  const PartBlocks blocks{a.count * static_cast<std::size_t>(p), p,
                          simmpi::dtype_size(a.dt)};
  const RingPos ring = ring_pos(p, me, me);
  co_await ring_reduce_scatter(a, ring, a.tag_base, workb, tmp, blocks);
  // After p-1 steps I hold the fully reduced block (me+1) mod p, which
  // belongs to my right neighbour; one final shift delivers block `me` to
  // rank `me` (keeps the MPI_Reduce_scatter_block block assignment).
  const Block owned = blocks((me + 1) % p);
  auto sf = r.isend(c, ring.right, a.tag_base + 1, bbytes,
                    sub(as_const(workb), owned.offset, owned.bytes));
  co_await r.recv(c, ring.left, a.tag_base + 1, bbytes, a.recv);
  co_await sf->wait();
}

// ---------------------------------------------------------------------------
// Barrier

sim::CoTask<void> barrier(CollArgs a) {
  DPML_CHECK(a.rank != nullptr && a.comm != nullptr);
  const bool is_world =
      a.comm->context() == a.rank->machine().world().context();
  if (is_world && a.rank->machine().ppn() > 1) {
    return barrier_single_leader(std::move(a));
  }
  return barrier_dissemination(std::move(a));
}

sim::CoTask<void> barrier_dissemination(CollArgs a) {
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  int step = 0;
  for (int dist = 1; dist < p; dist <<= 1, ++step) {
    const int to = (me + dist) % p;
    const int from = (me - dist % p + p) % p;
    auto sf = r.isend(c, to, a.tag_base + step, 0);
    co_await r.recv(c, from, a.tag_base + step, 0);
    co_await sf->wait();
  }
}

sim::CoTask<void> barrier_single_leader(CollArgs a,
                                        sharp::SharpFabric* fabric) {
  require_world(a);
  Rank& r = *a.rank;
  Machine& m = r.machine();
  const int ppn = m.ppn();
  if (ppn == 1) {
    if (fabric == nullptr) {
      co_await barrier_dissemination(std::move(a));
    } else {
      const sharp::Group& g =
          fabric->named_group("all_ranks", m.world().ranks());
      co_await fabric->barrier(r, g);
    }
    co_return;
  }
  NodeSlot slot = claim_leader_groups(a, ppn, 0, kArrivals | kPublished);
  if (r.local_rank() == 0) {
    co_await slot->latches[0].wait();
    if (fabric != nullptr) {
      const sharp::Group& g =
          fabric->named_group("node_leaders", m.leader_comm(0, 1).ranks());
      co_await fabric->barrier(r, g);
    } else if (m.num_nodes() > 1) {
      const CollArgs la{.rank = &r, .comm = &m.leader_comm(0, 1)};
      co_await barrier_dissemination(la);
    }
    co_await r.signal(slot->flags[0]);
  } else {
    co_await r.signal(slot->latches[0]);
    co_await slot->flags[0].wait();
    co_await r.compute(m.config().host.flag_latency);
  }
  slot.release();
}

// ---- Registry entries ----

namespace {

const CollRegistration reg_gather_binomial{plain_desc(
    "binomial", CollKind::gather, gather_binomial, CollCaps{.tunable = true})};
const CollRegistration reg_gather_linear{plain_desc(
    "linear", CollKind::gather, gather_linear, CollCaps{.tunable = true})};
const CollRegistration reg_gather_auto{
    plain_desc("auto", CollKind::gather, gather)};

const CollRegistration reg_scatter_binomial{
    plain_desc("binomial", CollKind::scatter, scatter_binomial,
               CollCaps{.tunable = true})};
const CollRegistration reg_scatter_linear{plain_desc(
    "linear", CollKind::scatter, scatter_linear, CollCaps{.tunable = true})};
const CollRegistration reg_scatter_auto{
    plain_desc("auto", CollKind::scatter, scatter)};

const CollRegistration reg_allgather_ring{plain_desc(
    "ring", CollKind::allgather, allgather_ring, CollCaps{.tunable = true})};
const CollRegistration reg_allgather_rd{plain_desc(
    "rd", CollKind::allgather, allgather_rd, CollCaps{.tunable = true})};
const CollRegistration reg_allgather_auto{
    plain_desc("auto", CollKind::allgather, allgather)};

const CollRegistration reg_reduce_scatter_ring{
    plain_desc("ring", CollKind::reduce_scatter, reduce_scatter_ring,
               CollCaps{.tunable = true})};
const CollRegistration reg_reduce_scatter_rts{
    plain_desc("reduce-then-scatter", CollKind::reduce_scatter,
               reduce_scatter_reduce_then_scatter, CollCaps{.tunable = true})};
const CollRegistration reg_reduce_scatter_auto{
    plain_desc("auto", CollKind::reduce_scatter, reduce_scatter)};

const CollRegistration reg_barrier_dissemination{
    plain_desc("dissemination", CollKind::barrier, barrier_dissemination,
               CollCaps{.tunable = true})};
const CollRegistration reg_barrier_single_leader{{
    "single-leader",
    CollKind::barrier,
    CollCaps{.world_only = true, .tunable = true},
    [](CollArgs a, const CollSpec&) {
      return barrier_single_leader(std::move(a));
    },
}};
const CollRegistration reg_barrier_auto{
    plain_desc("auto", CollKind::barrier, barrier)};

}  // namespace

void link_group_collectives() {}

}  // namespace dpml::coll
