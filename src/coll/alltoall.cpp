#include "coll/alltoall.hpp"

#include <cstring>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "coll/registry.hpp"
#include "coll/ring.hpp"
#include "util/error.hpp"

namespace dpml::coll {

// ---------------------------------------------------------------------------
// Alltoall

sim::CoTask<void> alltoall(CollArgs a) {
  if (a.bytes() <= 1024) return alltoall_bruck(std::move(a));
  return alltoall_pairwise(std::move(a));
}

sim::CoTask<void> alltoall_pairwise(CollArgs a) {
  check_args(CollKind::alltoall, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t bb = a.bytes();

  // Own block: local copy.
  const std::size_t mine = static_cast<std::size_t>(me) * bb;
  co_await local_copy(r, bb, sub(a.recv, mine, bb), sub(a.send, mine, bb));
  // p-1 shifted exchanges.
  for (int s = 1; s < p; ++s) {
    const int dst = (me + s) % p;
    const int src = (me - s + p) % p;
    auto sf = r.isend(c, dst, a.tag_base + s, bb,
                      sub(a.send, static_cast<std::size_t>(dst) * bb,
                          a.send.empty() ? 0 : bb));
    co_await r.recv(c, src, a.tag_base + s, bb,
                    sub(a.recv, static_cast<std::size_t>(src) * bb,
                        a.recv.empty() ? 0 : bb));
    co_await sf->wait();
  }
}

sim::CoTask<void> alltoall_bruck(CollArgs a) {
  check_args(CollKind::alltoall, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t bb = a.bytes();
  const bool with_data = r.machine().with_data();
  const auto& host = r.machine().config().host;
  const std::size_t total = static_cast<std::size_t>(p) * bb;

  // Phase 1: upward rotation — tmp[i] = send block for rank (me + i) % p.
  std::vector<std::byte> tmp;
  if (with_data && !a.send.empty()) {
    tmp.resize(total);
    for (int i = 0; i < p; ++i) {
      const int blk = (me + i) % p;
      std::memcpy(tmp.data() + static_cast<std::size_t>(i) * bb,
                  a.send.data() + static_cast<std::size_t>(blk) * bb, bb);
    }
  }
  co_await local_copy(r, total);

  // Phase 2: lg(p) rounds; round k moves every block whose index has bit k.
  std::vector<std::byte> sbuf;
  std::vector<std::byte> rbuf;
  int step = 0;
  for (int k = 1; k < p; k <<= 1, ++step) {
    std::vector<int> idx;
    for (int i = 0; i < p; ++i) {
      if (i & k) idx.push_back(i);
    }
    const std::size_t nbytes = idx.size() * bb;
    if (with_data && !tmp.empty()) {
      sbuf.resize(nbytes);
      rbuf.resize(nbytes);
      for (std::size_t j = 0; j < idx.size(); ++j) {
        std::memcpy(sbuf.data() + j * bb,
                    tmp.data() + static_cast<std::size_t>(idx[j]) * bb, bb);
      }
    }
    // Pack + (later) unpack cost.
    co_await r.engine().delay(sim::transfer_time(2 * nbytes, host.copy_bw));
    const int dst = (me + k) % p;
    const int src = (me - k + p) % p;
    auto sf = r.isend(c, dst, a.tag_base + step, nbytes,
                      with_data && !sbuf.empty()
                          ? ConstBytes{sbuf.data(), nbytes}
                          : ConstBytes{});
    co_await r.recv(c, src, a.tag_base + step, nbytes,
                    with_data && !rbuf.empty() ? MutBytes{rbuf.data(), nbytes}
                                               : MutBytes{});
    co_await sf->wait();
    if (with_data && !tmp.empty()) {
      for (std::size_t j = 0; j < idx.size(); ++j) {
        std::memcpy(tmp.data() + static_cast<std::size_t>(idx[j]) * bb,
                    rbuf.data() + j * bb, bb);
      }
    }
  }

  // Phase 3: downward rotation with inversion — the block now at position i
  // came from rank (me - i + p) % p.
  if (with_data && !tmp.empty() && !a.recv.empty()) {
    for (int i = 0; i < p; ++i) {
      const int src = (me - i + p) % p;
      std::memcpy(a.recv.data() + static_cast<std::size_t>(src) * bb,
                  tmp.data() + static_cast<std::size_t>(i) * bb, bb);
    }
  }
  co_await local_copy(r, total);
}

// ---------------------------------------------------------------------------
// v-variants

namespace {
std::size_t sum_of(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}
std::size_t prefix_of(const std::vector<std::size_t>& v, int r) {
  std::size_t off = 0;
  for (int i = 0; i < r; ++i) off += v[static_cast<std::size_t>(i)];
  return off;
}
}  // namespace

std::size_t GathervArgs::total_bytes() const { return sum_of(block_bytes); }
std::size_t GathervArgs::offset_of(int r) const {
  return prefix_of(block_bytes, r);
}

void GathervArgs::check() const {
  DPML_CHECK_MSG(rank != nullptr && comm != nullptr,
                 "GathervArgs missing rank/comm");
  DPML_CHECK(root >= 0 && root < comm->size());
  DPML_CHECK_MSG(static_cast<int>(block_bytes.size()) == comm->size(),
                 "gatherv needs one block size per rank");
  const int me = comm->rank_of_world(rank->world_rank());
  if (me >= 0) {
    DPML_CHECK(send.empty() ||
               send.size() == block_bytes[static_cast<std::size_t>(me)]);
  }
  DPML_CHECK(recv.empty() || recv.size() == total_bytes());
}

sim::CoTask<void> gatherv(GathervArgs a) {
  a.check();
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t mine = a.block_bytes[static_cast<std::size_t>(me)];

  if (me == a.root) {
    co_await local_copy(r, mine, sub(a.recv, a.offset_of(me), mine), a.send);
    std::vector<std::shared_ptr<sim::Flag>> pending;
    for (int src = 0; src < p; ++src) {
      if (src == me) continue;
      const std::size_t bytes = a.block_bytes[static_cast<std::size_t>(src)];
      auto h = r.irecv(c, src, a.tag_base, bytes,
                       sub(a.recv, a.offset_of(src), a.recv.empty() ? 0 : bytes));
      pending.push_back(h.done);
    }
    co_await sim::wait_all(std::move(pending));
  } else {
    co_await r.send(c, a.root, a.tag_base, mine, a.send);
  }
}

std::size_t AllgathervArgs::total_bytes() const { return sum_of(block_bytes); }
std::size_t AllgathervArgs::offset_of(int r) const {
  return prefix_of(block_bytes, r);
}

void AllgathervArgs::check() const {
  DPML_CHECK_MSG(rank != nullptr && comm != nullptr,
                 "AllgathervArgs missing rank/comm");
  DPML_CHECK_MSG(static_cast<int>(block_bytes.size()) == comm->size(),
                 "allgatherv needs one block size per rank");
  const int me = comm->rank_of_world(rank->world_rank());
  if (me >= 0) {
    DPML_CHECK(send.empty() ||
               send.size() == block_bytes[static_cast<std::size_t>(me)]);
  }
  DPML_CHECK(recv.empty() || recv.size() == total_bytes());
}

sim::CoTask<void> allgatherv_ring(AllgathervArgs a) {
  a.check();
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  // Own block into place.
  const std::size_t mine = a.block_bytes[static_cast<std::size_t>(me)];
  co_await local_copy(r, mine, sub(a.recv, a.offset_of(me), mine), a.send);
  // Block i is rank i's, at its offset.
  const auto blocks = [&a](int i) {
    return Block{a.offset_of(i), a.block_bytes[static_cast<std::size_t>(i)]};
  };
  co_await ring_allgather(r, c, ring_pos(p, me, me), a.tag_base, a.recv,
                          blocks);
}

std::size_t ScattervArgs::total_bytes() const { return sum_of(block_bytes); }
std::size_t ScattervArgs::offset_of(int r) const {
  return prefix_of(block_bytes, r);
}

void ScattervArgs::check() const {
  DPML_CHECK_MSG(rank != nullptr && comm != nullptr,
                 "ScattervArgs missing rank/comm");
  DPML_CHECK(root >= 0 && root < comm->size());
  DPML_CHECK_MSG(static_cast<int>(block_bytes.size()) == comm->size(),
                 "scatterv needs one block size per rank");
  const int me = comm->rank_of_world(rank->world_rank());
  if (me >= 0) {
    DPML_CHECK(recv.empty() ||
               recv.size() == block_bytes[static_cast<std::size_t>(me)]);
  }
  DPML_CHECK(send.empty() || send.size() == total_bytes());
}

sim::CoTask<void> scatterv(ScattervArgs a) {
  a.check();
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  const int p = c.size();
  const std::size_t mine = a.block_bytes[static_cast<std::size_t>(me)];

  if (me == a.root) {
    std::vector<std::shared_ptr<sim::Flag>> pending;
    for (int dst = 0; dst < p; ++dst) {
      if (dst == me) continue;
      const std::size_t bytes = a.block_bytes[static_cast<std::size_t>(dst)];
      pending.push_back(r.isend(
          c, dst, a.tag_base, bytes,
          sub(a.send, a.offset_of(dst), a.send.empty() ? 0 : bytes)));
    }
    co_await local_copy(r, mine, a.recv, sub(a.send, a.offset_of(me), mine));
    co_await sim::wait_all(std::move(pending));
  } else {
    co_await r.recv(c, a.root, a.tag_base, mine, a.recv);
  }
}

// ---- Registry entries ----

namespace {

const CollRegistration reg_alltoall_bruck{plain_desc(
    "bruck", CollKind::alltoall, alltoall_bruck, CollCaps{.tunable = true})};
const CollRegistration reg_alltoall_pairwise{
    plain_desc("pairwise", CollKind::alltoall, alltoall_pairwise,
               CollCaps{.tunable = true})};
const CollRegistration reg_alltoall_auto{
    plain_desc("auto", CollKind::alltoall, alltoall)};

}  // namespace

void link_alltoall_collectives() {}

}  // namespace dpml::coll
