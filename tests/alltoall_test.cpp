// Alltoall (Bruck + pairwise), v-variant collectives, SHArP barrier/bcast,
// and the stencil kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "apps/stencil.hpp"
#include "coll/alltoall.hpp"
#include "coll/bcast.hpp"
#include "coll/group_coll.hpp"
#include "coll/registry.hpp"
#include "net/cluster.hpp"
#include "sharp/sharp.hpp"

namespace dpml::coll {
namespace {

using simmpi::Machine;
using simmpi::Rank;

std::vector<std::byte> block_pattern(int from, int to, std::size_t bytes) {
  std::vector<std::byte> v(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    v[i] = static_cast<std::byte>((from * 37 + to * 11 + i) & 0xff);
  }
  return v;
}

// Bytes [off, off + n) of v, by value: a 0-byte block compares without a
// pointer into an empty vector.
std::vector<std::byte> block_at(const std::vector<std::byte>& v,
                                std::size_t off, std::size_t n) {
  const auto first = v.begin() + static_cast<std::ptrdiff_t>(off);
  return {first, first + static_cast<std::ptrdiff_t>(n)};
}

void run_alltoall_case(const char* algo, int nodes, int ppn,
                       std::size_t block) {
  Machine m(net::test_cluster(nodes), nodes, ppn);
  const int p = m.world_size();
  std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(p));
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
  for (int w = 0; w < p; ++w) {
    in[w].resize(static_cast<std::size_t>(p) * block);
    out[w].resize(static_cast<std::size_t>(p) * block);
    for (int to = 0; to < p; ++to) {
      const auto b = block_pattern(w, to, block);
      std::memcpy(in[w].data() + static_cast<std::size_t>(to) * block,
                  b.data(), block);
    }
  }
  const CollDescriptor& d =
      CollRegistry::instance().at(CollKind::alltoall, algo);
  const CollSpec spec;
  m.run([&](Rank& r) -> sim::CoTask<void> {
    CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = block;
    a.dt = simmpi::Dtype::u8;
    a.send = simmpi::ConstBytes{in[static_cast<std::size_t>(r.world_rank())]};
    a.recv = simmpi::MutBytes{out[static_cast<std::size_t>(r.world_rank())]};
    co_await d.make(a, spec);
  });
  for (int w = 0; w < p; ++w) {
    for (int from = 0; from < p; ++from) {
      const auto expect = block_pattern(from, w, block);
      ASSERT_EQ(0, std::memcmp(out[w].data() +
                                   static_cast<std::size_t>(from) * block,
                               expect.data(), block))
          << "algo=" << algo << " " << nodes << "x" << ppn
          << " dst=" << w << " src=" << from;
    }
  }
}

TEST(Alltoall, PairwiseExactOnVariousShapes) {
  run_alltoall_case("pairwise", 2, 2, 16);
  run_alltoall_case("pairwise", 3, 2, 9);
  run_alltoall_case("pairwise", 4, 4, 32);
  run_alltoall_case("pairwise", 5, 1, 8);
}

TEST(Alltoall, BruckExactOnVariousShapes) {
  run_alltoall_case("bruck", 2, 2, 16);
  run_alltoall_case("bruck", 3, 2, 9);
  run_alltoall_case("bruck", 4, 4, 32);
  run_alltoall_case("bruck", 5, 1, 8);
  run_alltoall_case("bruck", 7, 1, 4);  // non-power-of-two
}

TEST(Alltoall, AutomaticPicksBySize) {
  run_alltoall_case("auto", 4, 2, 8);     // bruck range
  run_alltoall_case("auto", 4, 2, 4096);  // pairwise range
}

TEST(Alltoall, BruckBeatsPairwiseLatencyForTinyBlocks) {
  auto run = [](sim::CoTask<void> (*algo)(CollArgs)) {
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(net::cluster_b(), 16, 1, opt);
    m.run([&](Rank& r) -> sim::CoTask<void> {
      CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 8;
      a.dt = simmpi::Dtype::u8;
      co_await algo(a);
    });
    return m.now();
  };
  // lg(p) rounds vs p-1 rounds.
  EXPECT_LT(run(alltoall_bruck), run(alltoall_pairwise));
}

// ---------------------------------------------------------------------------
// v-variants

TEST(Vcoll, GathervIrregularBlocks) {
  Machine m(net::test_cluster(2), 2, 2);
  const int p = m.world_size();
  std::vector<std::size_t> sizes{5, 0, 17, 3};
  std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(p));
  for (int w = 0; w < p; ++w) in[w] = block_pattern(w, 0, sizes[w]);
  std::vector<std::byte> out(25);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    GathervArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.root = 2;
    a.block_bytes = sizes;
    a.send = simmpi::ConstBytes{in[static_cast<std::size_t>(r.world_rank())]};
    if (r.world_rank() == 2) a.recv = simmpi::MutBytes{out};
    co_await gatherv(a);
  });
  std::size_t off = 0;
  for (int w = 0; w < p; ++w) {
    EXPECT_EQ(block_at(out, off, sizes[w]), in[w]) << "block " << w;
    off += sizes[w];
  }
}

TEST(Vcoll, ScattervIrregularBlocks) {
  Machine m(net::test_cluster(2), 2, 2);
  const int p = m.world_size();
  std::vector<std::size_t> sizes{8, 24, 0, 4};
  std::vector<std::byte> all(36);
  std::size_t off = 0;
  for (int w = 0; w < p; ++w) {
    const auto b = block_pattern(0, w, sizes[w]);
    std::copy(b.begin(), b.end(),
              all.begin() + static_cast<std::ptrdiff_t>(off));
    off += sizes[w];
  }
  std::vector<std::vector<std::byte>> outs(static_cast<std::size_t>(p));
  for (int w = 0; w < p; ++w) outs[w].resize(sizes[w]);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    ScattervArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.root = 0;
    a.block_bytes = sizes;
    if (r.world_rank() == 0) a.send = simmpi::ConstBytes{all};
    a.recv = simmpi::MutBytes{outs[static_cast<std::size_t>(r.world_rank())]};
    co_await scatterv(a);
  });
  for (int w = 0; w < p; ++w) {
    EXPECT_EQ(outs[w], block_pattern(0, w, sizes[w])) << "rank " << w;
  }
}

TEST(Vcoll, AllgathervRingIrregularBlocks) {
  Machine m(net::test_cluster(3), 3, 2);
  const int p = m.world_size();
  std::vector<std::size_t> sizes{1, 9, 0, 13, 5, 2};
  std::size_t total = 0;
  for (auto s : sizes) total += s;
  std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(p));
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
  for (int w = 0; w < p; ++w) {
    in[w] = block_pattern(w, 9, sizes[w]);
    out[w].resize(total);
  }
  m.run([&](Rank& r) -> sim::CoTask<void> {
    AllgathervArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.block_bytes = sizes;
    a.send = simmpi::ConstBytes{in[static_cast<std::size_t>(r.world_rank())]};
    a.recv = simmpi::MutBytes{out[static_cast<std::size_t>(r.world_rank())]};
    co_await allgatherv_ring(a);
  });
  for (int w = 0; w < p; ++w) {
    std::size_t off = 0;
    for (int b = 0; b < p; ++b) {
      EXPECT_EQ(block_at(out[w], off, sizes[b]), in[b])
          << "rank " << w << " block " << b;
      off += sizes[b];
    }
  }
}

TEST(Vcoll, SizeVectorLengthChecked) {
  Machine m(net::test_cluster(2), 2, 1);
  EXPECT_THROW(m.run([&](Rank& r) -> sim::CoTask<void> {
                 GathervArgs a;
                 a.rank = &r;
                 a.comm = &m.world();
                 a.block_bytes = {4};  // world has 2 ranks
                 co_await gatherv(a);
               }),
               util::InvariantError);
}

// ---------------------------------------------------------------------------
// SHArP barrier and bcast

TEST(SharpExtra, BarrierReleasesAfterLastArrival) {
  Machine m(net::test_cluster(4), 4, 4,
            simmpi::RunOptions{.with_data = false, .seed = 1});
  sharp::SharpFabric f(m);
  std::vector<sim::Time> exits(static_cast<std::size_t>(m.world_size()));
  const sim::Time skew = sim::us(40.0);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    co_await r.compute(skew * r.world_rank());
    CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    co_await barrier_single_leader(a, &f);
    exits[static_cast<std::size_t>(r.world_rank())] = r.engine().now();
  });
  const sim::Time last = skew * (m.world_size() - 1);
  for (auto t : exits) EXPECT_GE(t, last);
}

TEST(SharpExtra, BarrierFasterThanDisseminationAtScale) {
  auto run = [](bool use_sharp) {
    auto cfg = net::cluster_a();
    Machine m(cfg, 16, 28, simmpi::RunOptions{.with_data = false, .seed = 1});
    sharp::SharpFabric f(m);
    m.run([&, use_sharp](Rank& r) -> sim::CoTask<void> {
      CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      if (use_sharp) {
        co_await barrier_single_leader(a, &f);
      } else {
        co_await barrier_single_leader(a);
      }
    });
    return m.now();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(SharpExtra, BcastDeliversPayload) {
  for (int root : {0, 5}) {
    Machine m(net::test_cluster(4), 4, 2);
    sharp::SharpFabric f(m);
    const std::size_t bytes = 777;
    const auto payload = block_pattern(root, 42, bytes);
    std::vector<std::vector<std::byte>> bufs(
        static_cast<std::size_t>(m.world_size()));
    for (int w = 0; w < m.world_size(); ++w) {
      bufs[w].resize(bytes);
      if (w == root) bufs[w] = payload;
    }
    m.run([&](Rank& r) -> sim::CoTask<void> {
      CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.root = root;
      a.count = bytes;
      a.dt = simmpi::Dtype::u8;
      a.recv = simmpi::MutBytes{bufs[static_cast<std::size_t>(r.world_rank())]};
      co_await bcast_single_leader(a, &f);
    });
    for (int w = 0; w < m.world_size(); ++w) {
      EXPECT_EQ(bufs[w], payload) << "root " << root << " rank " << w;
    }
  }
}

TEST(SharpExtra, BcastOversizeFallsBackToHost) {
  auto cfg = net::test_cluster(2);
  cfg.sharp->max_payload = 64;
  Machine m(cfg, 2, 2);
  sharp::SharpFabric f(m);
  const std::size_t bytes = 4096;
  const auto payload = block_pattern(1, 2, bytes);
  std::vector<std::vector<std::byte>> bufs(
      static_cast<std::size_t>(m.world_size()));
  for (int w = 0; w < m.world_size(); ++w) {
    bufs[w].resize(bytes);
    if (w == 0) bufs[w] = payload;
  }
  m.run([&](Rank& r) -> sim::CoTask<void> {
    CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = bytes;
    a.dt = simmpi::Dtype::u8;
    a.recv = simmpi::MutBytes{bufs[static_cast<std::size_t>(r.world_rank())]};
    co_await bcast_single_leader(a, &f);
  });
  for (int w = 0; w < m.world_size(); ++w) EXPECT_EQ(bufs[w], payload);
}

// ---------------------------------------------------------------------------
// Stencil kernel

TEST(Stencil, ProcessGridFactorsCorrectly) {
  for (int p : {1, 2, 4, 8, 12, 28, 64, 100, 97}) {
    const auto g = apps::process_grid(p);
    EXPECT_EQ(g[0] * g[1] * g[2], p) << "p=" << p;
  }
  // Near-cubic for cubes.
  const auto g64 = apps::process_grid(64);
  EXPECT_EQ(g64[0], 4);
  EXPECT_EQ(g64[1], 4);
  EXPECT_EQ(g64[2], 4);
}

TEST(Stencil, RunsAndCountsResidualChecks) {
  auto cfg = net::cluster_b();
  apps::StencilOptions o;
  o.nodes = 2;
  o.ppn = 4;
  o.sweeps = 8;
  o.check_every = 4;
  o.spec.algo = "mvapich2";
  const auto r = apps::run_stencil(cfg, o);
  EXPECT_EQ(r.residual_checks, 2);
  EXPECT_GT(r.total_s, 0.0);
  EXPECT_GT(r.halo_s, 0.0);
  EXPECT_GT(r.allreduce_s, 0.0);
  EXPECT_LT(r.halo_s + r.allreduce_s, r.total_s);
}

TEST(Stencil, SharpSpeedsUpResidualPhase) {
  auto cfg = net::cluster_a();
  apps::StencilOptions host;
  host.nodes = 8;
  host.ppn = 28;
  host.sweeps = 8;
  host.check_every = 1;  // allreduce-heavy
  host.spec.algo = "mvapich2";
  apps::StencilOptions sharp_opt = host;
  sharp_opt.spec.algo = "sharp-socket-leader";
  const auto a = apps::run_stencil(cfg, host);
  const auto b = apps::run_stencil(cfg, sharp_opt);
  EXPECT_LT(b.allreduce_s, a.allreduce_s);
}

TEST(Stencil, Deterministic) {
  auto cfg = net::cluster_c();
  apps::StencilOptions o;
  o.nodes = 3;
  o.ppn = 4;
  o.sweeps = 5;
  o.spec.algo = "dpml";
  EXPECT_EQ(apps::run_stencil(cfg, o).total_s,
            apps::run_stencil(cfg, o).total_s);
}

}  // namespace
}  // namespace dpml::coll
