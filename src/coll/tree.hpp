// The binomial tree's two passes.
//
// Every rooted design that walks a binomial tree of hosts runs on these two
// passes (MPICH's binomial schedule):
//
//  * bcast binomial: the down pass, the whole vector as every block;
//  * bcast scatter-allgather: the down pass over the partition blocks (the
//    binomial scatter), then the ring allgather (coll/ring.hpp);
//  * scatter binomial and gather binomial: the down and the up pass over
//    the blocks a rank holds;
//  * reduce binomial (and so reduce-then-scatter and the binomial
//    allreduce): the up pass, folding each child's vector into mine.
//
// Vranks count from the root. Vrank v's parent edge sits at level
// lowbit(v) (the root's at the first power of two >= p): its parent is
// v - level, its subtree the vranks [v, min(v + level, p)), and its
// children v + m for each power of two m < level with v + m < p. A block
// layout gives vrank block i's byte extent, and a subtree's extent runs
// from its first block's offset to its last block's end, so the passes do
// not branch on which design calls them.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>

#include "coll/ring.hpp"

namespace dpml::coll {

// Every block is the one `bytes`-byte vector.
struct WholeBlocks {
  std::size_t bytes = 0;

  Block operator()(int) const { return {0, bytes}; }
};

// `bytes`-byte blocks held from vrank `first` on, the first at offset 0.
struct HeldBlocks {
  int first = 0;
  std::size_t bytes = 0;

  Block operator()(int i) const {
    return {static_cast<std::size_t>(i - first) * bytes, bytes};
  }
};

// A rank's place in the binomial tree of p rooted at comm rank `root`.
struct TreePos {
  int p = 1;
  int root = 0;
  int vrank = 0;
  int level = 1;  // of my parent edge

  // The comm rank of vrank v.
  int rank(int v) const { return (v + root) % p; }
  // The byte extent of vrank v's subtree, whose parent edge is at `lvl`.
  template <typename Blocks>
  Block subtree(const Blocks& blocks, int v, int lvl) const {
    const std::size_t lo = blocks(v).offset;
    const Block end = blocks(std::min(v + lvl, p) - 1);
    return {lo, end.offset + end.bytes - lo};
  }
};

inline TreePos tree_pos(int p, int me, int root) {
  const int vrank = (me - root + p) % p;
  int level = 1;
  while (level < p && (vrank & level) == 0) level <<= 1;
  return {p, root, vrank, level};
}

// The down pass: take my subtree from my parent into `buf`, then send each
// child its subtree, largest first, all on `tag`.
template <typename Blocks>
sim::CoTask<void> tree_down(Rank& r, const Comm& c, TreePos t, int tag,
                            MutBytes buf, Blocks blocks) {
  if (t.vrank != 0) {
    const Block in = t.subtree(blocks, t.vrank, t.level);
    co_await r.recv(c, t.rank(t.vrank - t.level), tag, in.bytes,
                    sub(buf, in.offset, in.bytes));
  }
  for (int m = t.level >> 1; m > 0; m >>= 1) {
    if (t.vrank + m >= t.p) continue;
    const Block out = t.subtree(blocks, t.vrank + m, m);
    co_await r.send(c, t.rank(t.vrank + m), tag, out.bytes,
                    sub(as_const(buf), out.offset, out.bytes));
  }
}

// What the up pass does with a child's subtree.
enum class Incoming {
  land,  // received in place in buf
  fold,  // received into tmp (spanning the largest subtree), then folded
         // into buf with a.op
};

// The up pass: take each child's subtree, smallest first, on tag + the
// child's level index, then send my subtree from `buf` to my parent on
// tag + my level index.
template <typename Blocks>
sim::CoTask<void> tree_up(const CollArgs& a, TreePos t, int tag, MutBytes buf,
                          Blocks blocks, Incoming incoming = Incoming::land,
                          MutBytes tmp = {}) {
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  auto level_tag = [tag](int lvl) {
    return tag + std::countr_zero(static_cast<unsigned>(lvl));
  };
  const bool fold = incoming == Incoming::fold;
  for (int m = 1; m < t.level && t.vrank + m < t.p; m <<= 1) {
    const Block in = t.subtree(blocks, t.vrank + m, m);
    co_await r.recv(c, t.rank(t.vrank + m), level_tag(m), in.bytes,
                    fold ? sub(tmp, 0, in.bytes)
                         : sub(buf, in.offset, in.bytes));
    if (!fold) continue;
    co_await r.reduce_compute(in.bytes);
    a.op.apply(a.dt, in.bytes / simmpi::dtype_size(a.dt),
               sub(buf, in.offset, in.bytes), sub(as_const(tmp), 0, in.bytes));
  }
  if (t.vrank != 0) {
    const Block mine = t.subtree(blocks, t.vrank, t.level);
    co_await r.send(c, t.rank(t.vrank - t.level), level_tag(t.level),
                    mine.bytes, sub(as_const(buf), mine.offset, mine.bytes));
  }
}

}  // namespace dpml::coll
