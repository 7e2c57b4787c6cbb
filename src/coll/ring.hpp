// The single-channel ring's two halves.
//
// Every flat design that moves blocks around one ring runs on these two
// passes (Patarasuk & Yuan's bandwidth-optimal ring; Träff derives the
// allreduce as their composition):
//
//  * the ring allreduce (cring's one-channel path, registered as "ring"):
//    reduce-scatter, then allgather;
//  * reduce rsa-gather: reduce-scatter, then a gather at the root;
//  * reduce_scatter ring: reduce-scatter, then one shift home;
//  * bcast scatter-allgather: a binomial scatter, then allgather;
//  * allgather ring and allgatherv ring: allgather.
//
// A pass holds the step schedule and nothing else: at step s of p-1 a rank
// sends block own-s to its right neighbour and takes block own-s-1 from its
// left one. A block layout gives block i's byte extent, so the passes do not
// branch on which design calls them.
#pragma once

#include <cstddef>

#include "coll/coll.hpp"

namespace dpml::coll {

// Byte extent of one ring block.
struct Block {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

// Block i is partition i of a `count`-element vector of `esize`-byte
// elements cut into `parts` ragged pieces.
struct PartBlocks {
  std::size_t count = 0;
  int parts = 1;
  std::size_t esize = 1;

  Block operator()(int i) const {
    const Part pb = partition(count, parts, i);
    return {pb.offset * esize, pb.count * esize};
  }
};

// A rank's place on a ring of p: the comm ranks it takes from and sends
// to, and the block it sends at step 0.
struct RingPos {
  int p = 1;
  int left = 0;
  int right = 0;
  int own = 0;
};

// The ring of comm ranks in order, `me` sending block `own` first.
inline RingPos ring_pos(int p, int me, int own) {
  return {p, (me + p - 1) % p, (me + 1) % p, own};
}

// The reduce-scatter half: each step folds the block taken from the left
// (held in flight in `tmp`, which spans the largest block) into `buf` with
// a.op. Afterwards block own+1 of `buf` holds every rank's contribution.
// Blocks fold in rotation order: commutative ops only.
template <typename Blocks>
sim::CoTask<void> ring_reduce_scatter(const CollArgs& a, RingPos ring,
                                      int tag, MutBytes buf, MutBytes tmp,
                                      Blocks blocks) {
  Rank& r = *a.rank;
  const std::size_t esize = simmpi::dtype_size(a.dt);
  for (int s = 0; s < ring.p - 1; ++s) {
    const Block give = blocks((ring.own - s + ring.p) % ring.p);
    const Block take = blocks((ring.own - s - 1 + ring.p) % ring.p);
    auto sf = r.isend(*a.comm, ring.right, tag, give.bytes,
                      sub(as_const(buf), give.offset, give.bytes));
    co_await r.recv(*a.comm, ring.left, tag, take.bytes,
                    sub(tmp, 0, take.bytes));
    co_await sf->wait();
    co_await r.reduce_compute(take.bytes);
    a.op.apply(a.dt, take.bytes / esize, sub(buf, take.offset, take.bytes),
               sub(as_const(tmp), 0, take.bytes));
  }
}

// The allgather half: each step forwards a block of `buf` to the right and
// takes the next one from the left into place. A rank that starts holding
// block own ends holding every block.
template <typename Blocks>
sim::CoTask<void> ring_allgather(Rank& r, const Comm& c, RingPos ring, int tag,
                                 MutBytes buf, Blocks blocks) {
  for (int s = 0; s < ring.p - 1; ++s) {
    const Block give = blocks((ring.own - s + ring.p) % ring.p);
    const Block take = blocks((ring.own - s - 1 + ring.p) % ring.p);
    auto sf = r.isend(c, ring.right, tag, give.bytes,
                      sub(as_const(buf), give.offset, give.bytes));
    co_await r.recv(c, ring.left, tag, take.bytes,
                    sub(buf, take.offset, take.bytes));
    co_await sf->wait();
  }
}

}  // namespace dpml::coll
