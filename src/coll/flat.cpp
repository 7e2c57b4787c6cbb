// Flat (non-hierarchical) allreduce algorithms.
//
// These are the classic algorithms from Rabenseifner'04 / Thakur'05 that MPI
// libraries ship: recursive doubling, reduce-scatter + allgather (recursive
// halving/doubling), ring, binomial reduce+bcast, and a naive gather+bcast
// reference. They serve three roles in this reproduction: (1) the paper's
// baselines, (2) the inter-node phase-3 building block of DPML, and (3)
// correctness cross-checks for each other.
#include <algorithm>
#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include "coll/bcast.hpp"
#include "coll/coll.hpp"
#include "coll/reduce.hpp"
#include "coll/registry.hpp"
#include "coll/ring.hpp"
#include "util/error.hpp"

namespace dpml::coll {

namespace {

int floor_pow2(int p) {
  int v = 1;
  while (v * 2 <= p) v *= 2;
  return v;
}

// Tag layout within one collective invocation: each algorithm uses
// [tag_base, tag_base + 128) and steps stay well below 128.
constexpr int kEpilogueTag = 120;

// Channel cap for the multi-channel ring: channel k uses tags tag_base + k
// (reduce-scatter) and tag_base + 64 + k (allgather), so 16 stays well
// inside the tag budget.
constexpr int kMaxRingChannels = 16;

// Exchange full vectors with `partner` and fold the incoming one into
// a.recv. `partner_left` says the partner's contribution covers comm ranks
// *preceding* mine, so non-commutative ops fold it on the left. Uses
// isend+recv to avoid rendezvous deadlock on symmetric exchanges.
sim::CoTask<void> exchange_reduce(const CollArgs& a, int partner, int tag,
                                  MutBytes tmp, bool partner_left) {
  Rank& r = *a.rank;
  const std::size_t nbytes = a.bytes();
  auto sf = r.isend(*a.comm, partner, tag, nbytes, as_const(a.recv));
  co_await r.recv(*a.comm, partner, tag, nbytes, tmp);
  co_await sf->wait();
  co_await r.reduce_compute(nbytes);
  if (partner_left) {
    a.op.apply_left(a.dt, a.count, a.recv, as_const(MutBytes{tmp}));
  } else {
    a.op.apply(a.dt, a.count, a.recv, as_const(MutBytes{tmp}));
  }
}

}  // namespace

sim::CoTask<void> allreduce_recursive_doubling(CollArgs a) {
  a.check();
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  co_await copy_in(a);
  const int p = c.size();
  if (p == 1) co_return;
  const std::size_t nbytes = a.bytes();
  auto tmp_store = a.scratch(nbytes);
  MutBytes tmp{tmp_store};

  const int pof2 = floor_pow2(p);
  const int rem = p - pof2;
  int newrank;
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      // Fold my vector into my odd neighbour and sit out the core loop.
      co_await r.send(c, me + 1, a.tag_base, nbytes, as_const(a.recv));
      newrank = -1;
    } else {
      co_await r.recv(c, me - 1, a.tag_base, nbytes, tmp);
      co_await r.reduce_compute(nbytes);
      // The neighbour's vector covers comm rank me-1 < me: fold on the left.
      a.op.apply_left(a.dt, a.count, a.recv, as_const(tmp));
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }

  if (newrank != -1) {
    int step = 1;
    for (int mask = 1; mask < pof2; mask <<= 1, ++step) {
      const int npartner = newrank ^ mask;
      const int partner = npartner < rem ? npartner * 2 + 1 : npartner + rem;
      // newrank order preserves comm-rank block order, so the partner's
      // accumulated block precedes mine iff npartner < newrank.
      co_await exchange_reduce(a, partner, a.tag_base + step, tmp,
                               npartner < newrank);
    }
  }

  if (me < 2 * rem) {
    if (me % 2 == 1) {
      co_await r.send(c, me - 1, a.tag_base + kEpilogueTag, nbytes,
                      as_const(a.recv));
    } else {
      co_await r.recv(c, me + 1, a.tag_base + kEpilogueTag, nbytes, a.recv);
    }
  }
}

sim::CoTask<void> allreduce_reduce_scatter_allgather(CollArgs a) {
  a.check();
  // Recursive vector halving pairs ranks at distance pof2/2 *first*, so
  // after the very first exchange a rank's accumulated operand set is
  // non-contiguous in comm-rank order ({me, me + pof2/2}); no left/right
  // fold discipline can recover the serial order from there. MPICH draws
  // the same line: reduce-scatter + allgather only for commutative ops,
  // recursive doubling (contiguous blocks at every step) otherwise.
  if (!a.op.commutative()) {
    co_await allreduce_recursive_doubling(std::move(a));
    co_return;
  }
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  co_await copy_in(a);
  const int p = c.size();
  if (p == 1) co_return;
  const std::size_t esize = simmpi::dtype_size(a.dt);
  const std::size_t nbytes = a.bytes();
  auto tmp_store = a.scratch(nbytes);
  MutBytes tmp{tmp_store};

  const int pof2 = floor_pow2(p);
  const int rem = p - pof2;
  int newrank;
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      co_await r.send(c, me + 1, a.tag_base, nbytes, as_const(a.recv));
      newrank = -1;
    } else {
      co_await r.recv(c, me - 1, a.tag_base, nbytes, tmp);
      co_await r.reduce_compute(nbytes);
      // Only commutative ops reach here (non-commutative forwarded above),
      // so operand order is free.
      a.op.apply(a.dt, a.count, a.recv, as_const(tmp));
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }

  auto old_rank_of = [&](int nr) {
    return nr < rem ? nr * 2 + 1 : nr + rem;
  };

  if (newrank != -1) {
    // Reduce-scatter by recursive vector halving; the rank with the mask
    // bit clear keeps the lower half of the current range.
    std::size_t lo = 0;
    std::size_t hi = a.count;
    struct Level {
      std::size_t lo, hi;
      int partner;
    };
    std::vector<Level> levels;
    levels.reserve(static_cast<std::size_t>(std::bit_width(
        static_cast<unsigned>(pof2))));
    int step = 1;
    for (int mask = pof2 >> 1; mask > 0; mask >>= 1, ++step) {
      const int partner = old_rank_of(newrank ^ mask);
      const std::size_t mid = lo + (hi - lo) / 2;
      std::size_t keep_lo;
      std::size_t keep_hi;
      std::size_t give_lo;
      std::size_t give_hi;
      if ((newrank & mask) == 0) {
        keep_lo = lo;
        keep_hi = mid;
        give_lo = mid;
        give_hi = hi;
      } else {
        keep_lo = mid;
        keep_hi = hi;
        give_lo = lo;
        give_hi = mid;
      }
      const std::size_t keep_bytes = (keep_hi - keep_lo) * esize;
      const std::size_t give_bytes = (give_hi - give_lo) * esize;
      auto sf = r.isend(c, partner, a.tag_base + step, give_bytes,
                        sub(as_const(a.recv), give_lo * esize, give_bytes));
      co_await r.recv(c, partner, a.tag_base + step, keep_bytes,
                      sub(tmp, 0, keep_bytes));
      co_await sf->wait();
      co_await r.reduce_compute(keep_bytes);
      a.op.apply(a.dt, keep_hi - keep_lo,
                 sub(a.recv, keep_lo * esize, keep_bytes),
                 sub(as_const(tmp), 0, keep_bytes));
      levels.push_back(Level{lo, hi, partner});
      lo = keep_lo;
      hi = keep_hi;
    }

    // Allgather by recursive doubling, replaying the halving in reverse.
    int ag_step = 64;
    for (auto it = levels.rbegin(); it != levels.rend(); ++it, ++ag_step) {
      const std::size_t my_bytes = (hi - lo) * esize;
      // Partner holds the complement of my range within [it->lo, it->hi).
      std::size_t plo;
      std::size_t phi;
      if (lo == it->lo) {
        plo = hi;
        phi = it->hi;
      } else {
        plo = it->lo;
        phi = lo;
      }
      const std::size_t p_bytes = (phi - plo) * esize;
      auto sf = r.isend(c, it->partner, a.tag_base + ag_step, my_bytes,
                        sub(as_const(a.recv), lo * esize, my_bytes));
      co_await r.recv(c, it->partner, a.tag_base + ag_step, p_bytes,
                      sub(a.recv, plo * esize, p_bytes));
      co_await sf->wait();
      lo = it->lo;
      hi = it->hi;
    }
  }

  if (me < 2 * rem) {
    if (me % 2 == 1) {
      co_await r.send(c, me - 1, a.tag_base + kEpilogueTag, nbytes,
                      as_const(a.recv));
    } else {
      co_await r.recv(c, me + 1, a.tag_base + kEpilogueTag, nbytes, a.recv);
    }
  }
}

sim::CoTask<void> allreduce_ring_channels(CollArgs a, int channels) {
  a.check();
  // The ring's reduce-scatter folds each block in rotation order starting
  // from a different rank per block, which cannot preserve ascending
  // comm-rank operand order. Fall back the way MPICH does for
  // non-commutative ops: recursive doubling keeps every rank's accumulated
  // operand set contiguous in comm-rank order.
  if (!a.op.commutative()) {
    co_await allreduce_recursive_doubling(std::move(a));
    co_return;
  }
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  co_await copy_in(a);
  const int p = c.size();
  if (p == 1) co_return;
  const int nch = std::max(1, std::min(channels, kMaxRingChannels));
  const std::size_t esize = simmpi::dtype_size(a.dt);

  if (nch == 1) {
    // The plain ring: reduce-scatter, after which rank me holds block
    // me+1 reduced, then allgather from there.
    auto tmp_store = a.scratch(partition(a.count, p, 0).count * esize);
    const MutBytes tmp{tmp_store};
    const PartBlocks blocks{a.count, p, esize};
    co_await ring_reduce_scatter(a, ring_pos(p, me, me), a.tag_base, a.recv,
                                 tmp, blocks);
    co_await ring_allgather(r, c, ring_pos(p, me, (me + 1) % p),
                            a.tag_base + 1, a.recv, blocks);
    co_return;
  }

  // The vector splits into `nch` channel sub-vectors, each running its own
  // ring allreduce; every step posts all channel receives, then all channel
  // sends, so up to `nch` flows per rank are on the wire concurrently. Under
  // max-min fair sharing a job's aggregate link share grows with its
  // concurrent flow count, so extra channels buy bandwidth back from
  // background traffic — at the cost of nch per-message overheads per step
  // (the adaptive layer's trade-off; docs/MODEL.md §12).
  struct Chan {
    Part range;           // element range of this channel's sub-vector
    std::size_t tmp_off;  // scratch offset for the in-flight block
  };
  std::vector<Chan> ch(static_cast<std::size_t>(nch));
  std::size_t tmp_bytes = 0;
  for (int k = 0; k < nch; ++k) {
    ch[static_cast<std::size_t>(k)].range = partition(a.count, nch, k);
    ch[static_cast<std::size_t>(k)].tmp_off = tmp_bytes;
    const Part max_part =
        partition(ch[static_cast<std::size_t>(k)].range.count, p, 0);
    tmp_bytes += max_part.count * esize;
  }
  auto tmp_store = a.scratch(tmp_bytes);
  MutBytes tmp{tmp_store};

  const int right = (me + 1) % p;
  const int left = (me + p - 1) % p;

  // Phase 1: reduce-scatter, all channels in lockstep per ring step.
  for (int s = 0; s < p - 1; ++s) {
    std::vector<simmpi::RecvHandle> recvs;
    std::vector<std::shared_ptr<sim::Flag>> sends;
    recvs.reserve(static_cast<std::size_t>(nch));
    sends.reserve(static_cast<std::size_t>(nch));
    for (int k = 0; k < nch; ++k) {
      const Chan& cc = ch[static_cast<std::size_t>(k)];
      const Part take = partition(cc.range.count, p, (me - s - 1 + p * 2) % p);
      recvs.push_back(r.irecv(c, left, a.tag_base + k, take.count * esize,
                              sub(tmp, cc.tmp_off, take.count * esize)));
    }
    for (int k = 0; k < nch; ++k) {
      const Chan& cc = ch[static_cast<std::size_t>(k)];
      const Part give = partition(cc.range.count, p, (me - s + p) % p);
      sends.push_back(
          r.isend(c, right, a.tag_base + k, give.count * esize,
                  sub(as_const(a.recv), (cc.range.offset + give.offset) * esize,
                      give.count * esize)));
    }
    std::size_t fold_bytes = 0;
    for (int k = 0; k < nch; ++k) {
      co_await recvs[static_cast<std::size_t>(k)].done->wait();
      fold_bytes +=
          partition(ch[static_cast<std::size_t>(k)].range.count, p,
                    (me - s - 1 + p * 2) % p)
              .count *
          esize;
    }
    co_await sim::wait_all(std::move(sends));
    co_await r.reduce_compute(fold_bytes);
    for (int k = 0; k < nch; ++k) {
      const Chan& cc = ch[static_cast<std::size_t>(k)];
      const Part take = partition(cc.range.count, p, (me - s - 1 + p * 2) % p);
      a.op.apply(a.dt, take.count,
                 sub(a.recv, (cc.range.offset + take.offset) * esize,
                     take.count * esize),
                 sub(as_const(tmp), cc.tmp_off, take.count * esize));
    }
  }

  // Phase 2: allgather, all channels in lockstep per ring step.
  for (int s = 0; s < p - 1; ++s) {
    std::vector<simmpi::RecvHandle> recvs;
    std::vector<std::shared_ptr<sim::Flag>> sends;
    recvs.reserve(static_cast<std::size_t>(nch));
    sends.reserve(static_cast<std::size_t>(nch));
    for (int k = 0; k < nch; ++k) {
      const Chan& cc = ch[static_cast<std::size_t>(k)];
      const Part take = partition(cc.range.count, p, (me - s + p) % p);
      recvs.push_back(
          r.irecv(c, left, a.tag_base + 64 + k, take.count * esize,
                  sub(a.recv, (cc.range.offset + take.offset) * esize,
                      take.count * esize)));
    }
    for (int k = 0; k < nch; ++k) {
      const Chan& cc = ch[static_cast<std::size_t>(k)];
      const Part give = partition(cc.range.count, p, (me + 1 - s + p * 2) % p);
      sends.push_back(
          r.isend(c, right, a.tag_base + 64 + k, give.count * esize,
                  sub(as_const(a.recv), (cc.range.offset + give.offset) * esize,
                      give.count * esize)));
    }
    for (int k = 0; k < nch; ++k) {
      co_await recvs[static_cast<std::size_t>(k)].done->wait();
    }
    co_await sim::wait_all(std::move(sends));
  }
}

sim::CoTask<void> allreduce_binomial(CollArgs a) {
  a.check();
  const int me = a.comm->rank_of_world(a.rank->world_rank());
  if (me < 0) co_return;
  co_await copy_in(a);
  // Binomial reduce toward comm rank 0, in place: with root 0 the tree
  // folds in comm-rank order. Then a binomial bcast from rank 0 on tags
  // clear of the reduce's steps.
  CollArgs ta = a;
  ta.send = {};
  ta.inplace = true;
  ta.root = 0;
  co_await reduce_binomial(ta);
  ta.tag_base = a.tag_base + 64;
  co_await bcast_binomial(std::move(ta));
}

sim::CoTask<void> allreduce_gather_bcast(CollArgs a) {
  a.check();
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  co_await copy_in(a);
  const int p = c.size();
  if (p == 1) co_return;
  const std::size_t nbytes = a.bytes();

  if (me == 0) {
    auto tmp_store = a.scratch(nbytes);
    MutBytes tmp{tmp_store};
    for (int src = 1; src < p; ++src) {
      co_await r.recv(c, src, a.tag_base, nbytes, tmp);
      co_await r.reduce_compute(nbytes);
      a.op.apply(a.dt, a.count, a.recv, as_const(tmp));
    }
    std::vector<std::shared_ptr<sim::Flag>> sends;
    sends.reserve(static_cast<std::size_t>(p) - 1);
    for (int dst = 1; dst < p; ++dst) {
      sends.push_back(
          r.isend(c, dst, a.tag_base + 1, nbytes, as_const(a.recv)));
    }
    co_await sim::wait_all(std::move(sends));
  } else {
    co_await r.send(c, 0, a.tag_base, nbytes, as_const(a.recv));
    co_await r.recv(c, 0, a.tag_base + 1, nbytes, a.recv);
  }
}

// ---- Registry entries ----

namespace {

const CollRegistration reg_rd{
    plain_desc("rd", CollKind::allreduce, allreduce_recursive_doubling)};
const CollRegistration reg_rsa{
    plain_desc("rsa", CollKind::allreduce, allreduce_reduce_scatter_allgather)};
const CollRegistration reg_ring{plain_desc(
    "ring", CollKind::allreduce,
    [](CollArgs a) { return allreduce_ring_channels(std::move(a), 1); })};
// Multi-channel ring: `leaders` is the concurrent channel count. Works on
// any sub-communicator (not world_only) and is deliberately not part of the
// default tuning sweep — the adaptive re-planning layer (src/adapt/) selects
// its channel count from observed congestion instead.
const CollRegistration reg_cring{{
    "cring",
    CollKind::allreduce,
    CollCaps{.uses_leaders = true},
    [](CollArgs a, const CollSpec& s) {
      return allreduce_ring_channels(std::move(a), s.leaders);
    },
}};
const CollRegistration reg_binomial{
    plain_desc("binomial", CollKind::allreduce, allreduce_binomial)};
const CollRegistration reg_gather_bcast{
    plain_desc("gather-bcast", CollKind::allreduce, allreduce_gather_bcast)};

}  // namespace

void link_flat_collectives() {}

}  // namespace dpml::coll
