// The hypercube's two passes.
//
// Every flat design that pairs ranks across the bits of a hypercube runs on
// these two passes (Thakur, Rabenseifner & Gropp):
//
//  * allreduce rd: the doubling pass, folding whole vectors;
//  * allreduce rsa: the halving pass over the recursive-halving blocks (the
//    reduce-scatter), then the doubling pass landing them (the allgather);
//  * allgather rd: the doubling pass over the p blocks.
//
// The cube spans the largest power of two pof2 <= p: of the first 2·rem
// comm ranks (rem = p - pof2) each odd one is vrank me/2 and each even one
// sits the passes out, and comm rank me >= 2·rem is vrank me - rem, so
// vranks keep comm-rank order. At the step on bit m, vrank v and its
// partner v ^ m each hold the group of the m vranks from v & ~(m - 1), whose
// byte extent runs from its first block's offset to its last block's end.
#pragma once

#include <bit>
#include <cstddef>

#include "coll/tree.hpp"

namespace dpml::coll {

// A rank's place on the hypercube of the largest power of two <= p.
struct CubePos {
  int pof2 = 1;
  int rem = 0;    // p - pof2: the ranks folded in before the passes
  int vrank = 0;  // -1: folded into my right neighbour, off the cube

  // The comm rank of vrank v.
  int rank(int v) const { return v < rem ? 2 * v + 1 : v + rem; }
};

inline CubePos cube_pos(int p, int me) {
  const int pof2 = static_cast<int>(std::bit_floor(static_cast<unsigned>(p)));
  const int rem = p - pof2;
  if (me >= 2 * rem) return {pof2, rem, me - rem};
  return {pof2, rem, me % 2 == 1 ? me / 2 : -1};
}

// The byte extent of the group of m vranks from v's.
template <typename Blocks>
Block cube_group(const Blocks& blocks, int v, int m) {
  const std::size_t lo = blocks(v & ~(m - 1)).offset;
  const Block end = blocks((v & ~(m - 1)) + m - 1);
  return {lo, end.offset + end.bytes - lo};
}

// A `count`-element vector of `esize`-byte elements bisected from the top
// bit down: each cut leaves the lower half (for an odd length the smaller
// one) to the vranks with the bit clear. A group's extent is one node of
// the bisection, cut down to directly.
struct HalvingBlocks {
  std::size_t count = 0;
  int pof2 = 1;
  std::size_t esize = 1;
};

inline Block cube_group(const HalvingBlocks& blocks, int v, int m) {
  std::size_t lo = 0;
  std::size_t hi = blocks.count;
  for (int bit = blocks.pof2 >> 1; bit >= m; bit >>= 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if ((v & bit) == 0) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return {lo * blocks.esize, (hi - lo) * blocks.esize};
}

// The doubling pass, bits up from 1: send my group from `buf` to my partner
// and take its group on tag + the bit's index, in place (Incoming::land) or
// into tmp to fold into `buf` with a.op (Incoming::fold, every block the
// whole vector), on the left when the partner's vrank is lower.
template <typename Blocks>
sim::CoTask<void> cube_doubling(const CollArgs& a, CubePos cube, int tag,
                                MutBytes buf, Blocks blocks,
                                Incoming incoming = Incoming::land,
                                MutBytes tmp = {}) {
  Rank& r = *a.rank;
  const bool fold = incoming == Incoming::fold;
  for (int m = 1, step = 0; m < cube.pof2; m <<= 1, ++step) {
    const int peer = cube.vrank ^ m;
    const Block mine = cube_group(blocks, cube.vrank, m);
    const Block in = cube_group(blocks, peer, m);
    auto sf = r.isend(*a.comm, cube.rank(peer), tag + step, mine.bytes,
                      sub(as_const(buf), mine.offset, mine.bytes));
    co_await r.recv(*a.comm, cube.rank(peer), tag + step, in.bytes,
                    fold ? sub(tmp, 0, in.bytes)
                         : sub(buf, in.offset, in.bytes));
    co_await sf->wait();
    if (!fold) continue;
    co_await r.reduce_compute(in.bytes);
    const std::size_t n = in.bytes / simmpi::dtype_size(a.dt);
    const ConstBytes from = sub(as_const(tmp), 0, in.bytes);
    if (peer < cube.vrank) {
      a.op.apply_left(a.dt, n, sub(buf, in.offset, in.bytes), from);
    } else {
      a.op.apply(a.dt, n, sub(buf, in.offset, in.bytes), from);
    }
  }
}

// The halving pass, bits down from pof2/2: send my partner its group from
// `buf`, take my group's contribution into tmp (spanning the largest group)
// on tag + the step's index and fold it into `buf` with a.op. Afterwards my
// block holds every vrank's contribution. Commutative ops only.
template <typename Blocks>
sim::CoTask<void> cube_halving(const CollArgs& a, CubePos cube, int tag,
                               MutBytes buf, MutBytes tmp, Blocks blocks) {
  Rank& r = *a.rank;
  for (int m = cube.pof2 >> 1, step = 0; m > 0; m >>= 1, ++step) {
    const int peer = cube.vrank ^ m;
    const Block give = cube_group(blocks, peer, m);
    const Block keep = cube_group(blocks, cube.vrank, m);
    auto sf = r.isend(*a.comm, cube.rank(peer), tag + step, give.bytes,
                      sub(as_const(buf), give.offset, give.bytes));
    co_await r.recv(*a.comm, cube.rank(peer), tag + step, keep.bytes,
                    sub(tmp, 0, keep.bytes));
    co_await sf->wait();
    co_await r.reduce_compute(keep.bytes);
    a.op.apply(a.dt, keep.bytes / simmpi::dtype_size(a.dt),
               sub(buf, keep.offset, keep.bytes),
               sub(as_const(tmp), 0, keep.bytes));
  }
}

}  // namespace dpml::coll
