// Extended collectives: bcast, rooted reduce (incl. the DPML future-work
// extension), gather/scatter, allgather, reduce_scatter, barrier, and
// non-blocking allreduce. All data-mode, verified bit-for-bit.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "coll/bcast.hpp"
#include "coll/group_coll.hpp"
#include "coll/reduce.hpp"
#include "coll/registry.hpp"
#include "core/api.hpp"
#include "net/cluster.hpp"
#include "simmpi/verify.hpp"

namespace dpml::coll {
namespace {

using simmpi::Dtype;
using simmpi::Machine;
using simmpi::Rank;
using simmpi::ReduceOp;

std::vector<std::byte> pattern(std::size_t bytes, std::uint64_t seed) {
  std::vector<std::byte> v(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    v[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xff);
  }
  return v;
}

// A sweep's designs by registry name. The sweep parameter is a position in
// the list: Algo has no operator<<, so gtest prints it as its raw bytes and
// the ctest names of the sweeps stay those of the earlier enum-typed
// parameters.
const char* const kBcastAlgos[] = {"binomial", "scatter-allgather",
                                   "single-leader", "auto"};
const char* const kReduceAlgos[] = {"binomial", "rsa-gather", "single-leader",
                                    "dpml", "auto"};
const char* const kAllgatherAlgos[] = {"ring", "rd", "auto"};

struct Algo {
  int index;
};

template <std::size_t N>
std::vector<Algo> positions(const char* const (&)[N]) {
  std::vector<Algo> out;
  for (std::size_t i = 0; i < N; ++i) out.push_back(Algo{static_cast<int>(i)});
  return out;
}

// The instance-name prefix of a design: its name with '-' spelled '_'.
std::string name_part(std::string name) {
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

const CollDescriptor& design(CollKind kind, const char* name) {
  return CollRegistry::instance().at(kind, name);
}

// ---------------------------------------------------------------------------
// Broadcast

class BcastSweep : public ::testing::TestWithParam<
                       std::tuple<Algo, int /*nodes*/, int /*ppn*/,
                                  std::size_t /*bytes*/, int /*root*/>> {};

TEST_P(BcastSweep, DeliversRootPayloadEverywhere) {
  const auto [algo, nodes, ppn, bytes, root_in] = GetParam();
  Machine m(net::test_cluster(nodes), nodes, ppn);
  const int p = m.world_size();
  const int root = root_in % p;
  const auto payload = pattern(bytes, 42);
  std::vector<std::vector<std::byte>> bufs(static_cast<std::size_t>(p));
  for (int w = 0; w < p; ++w) {
    bufs[w].resize(bytes);
    if (w == root) bufs[w] = payload;
  }
  const CollDescriptor& d = design(CollKind::bcast, kBcastAlgos[algo.index]);
  const CollSpec spec;
  m.run([&](Rank& r) -> sim::CoTask<void> {
    CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.root = root;
    a.count = bytes;
    a.dt = Dtype::u8;
    a.recv = simmpi::MutBytes{bufs[static_cast<std::size_t>(r.world_rank())]};
    co_await d.make(a, spec);
  });
  for (int w = 0; w < p; ++w) {
    EXPECT_EQ(bufs[w], payload) << "rank " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bcast, BcastSweep,
    ::testing::Combine(
        ::testing::ValuesIn(positions(kBcastAlgos)),
        ::testing::Values(1, 3, 4), ::testing::Values(1, 4),
        ::testing::Values<std::size_t>(1, 64, 4097), ::testing::Values(0, 5)),
    [](const auto& info) {
      return name_part(kBcastAlgos[std::get<0>(info.param).index]) + "_" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param)) + "_b" +
             std::to_string(std::get<3>(info.param)) + "_r" +
             std::to_string(std::get<4>(info.param));
    });

TEST(Bcast, ZeroBytes) {
  Machine m(net::test_cluster(2), 2, 2);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.dt = Dtype::u8;
    co_await bcast_binomial(a);
  });
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Rooted reduce

class ReduceSweep
    : public ::testing::TestWithParam<std::tuple<Algo, int, int,
                                                 std::size_t, int>> {};

TEST_P(ReduceSweep, RootGetsExactResult) {
  const auto [algo, nodes, ppn, count, root_in] = GetParam();
  Machine m(net::test_cluster(nodes), nodes, ppn);
  const int p = m.world_size();
  const int root = root_in % p;
  std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(p));
  std::vector<std::byte> out(count * 4);
  for (int w = 0; w < p; ++w) {
    in[w] = simmpi::make_operand(Dtype::f32, count, w, ReduceOp::sum);
  }
  const CollDescriptor& d = design(CollKind::reduce, kReduceAlgos[algo.index]);
  CollSpec spec;
  spec.leaders = 2;
  m.run([&](Rank& r) -> sim::CoTask<void> {
    CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.root = root;
    a.count = count;
    a.dt = Dtype::f32;
    a.op = ReduceOp::sum;
    a.send = simmpi::ConstBytes{in[static_cast<std::size_t>(r.world_rank())]};
    if (r.world_rank() == m.world().world_rank(root)) {
      a.recv = simmpi::MutBytes{out};
    }
    co_await d.make(a, spec);
  });
  const auto ref =
      simmpi::reference_allreduce(Dtype::f32, count, p, ReduceOp::sum);
  EXPECT_EQ(out, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Reduce, ReduceSweep,
    ::testing::Combine(
        ::testing::ValuesIn(positions(kReduceAlgos)),
        ::testing::Values(1, 3, 4), ::testing::Values(1, 4),
        ::testing::Values<std::size_t>(1, 63, 1024), ::testing::Values(0, 7)),
    [](const auto& info) {
      return name_part(kReduceAlgos[std::get<0>(info.param).index]) + "_" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param)) + "_n" +
             std::to_string(std::get<3>(info.param)) + "_r" +
             std::to_string(std::get<4>(info.param));
    });

TEST(Reduce, DpmlManyLeaders) {
  Machine m(net::test_cluster(4), 4, 4);
  const std::size_t count = 257;
  const int p = m.world_size();
  std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(p));
  std::vector<std::byte> out(count * 4);
  for (int w = 0; w < p; ++w) {
    in[w] = simmpi::make_operand(Dtype::f32, count, w, ReduceOp::max);
  }
  m.run([&](Rank& r) -> sim::CoTask<void> {
    CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.root = 9;
    a.count = count;
    a.op = ReduceOp::max;
    a.send = simmpi::ConstBytes{in[static_cast<std::size_t>(r.world_rank())]};
    if (r.world_rank() == 9) a.recv = simmpi::MutBytes{out};
    coll::CollSpec spec;
    spec.leaders = 4;
    co_await reduce_dpml(a, spec);
  });
  EXPECT_EQ(out, simmpi::reference_allreduce(Dtype::f32, count, p,
                                             ReduceOp::max));
}

// ---------------------------------------------------------------------------
// Gather / Scatter

TEST(Gather, BinomialCollectsBlocksInRankOrder) {
  for (int root : {0, 3}) {
    Machine m(net::test_cluster(3), 3, 2);
    const int p = m.world_size();
    const std::size_t block = 24;
    std::vector<std::vector<std::byte>> blocks(static_cast<std::size_t>(p));
    for (int w = 0; w < p; ++w) blocks[w] = pattern(block, 100 + w);
    std::vector<std::byte> out(static_cast<std::size_t>(p) * block);
    m.run([&](Rank& r) -> sim::CoTask<void> {
      CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.root = root;
      a.count = block;
      a.dt = Dtype::u8;
      a.send = simmpi::ConstBytes{
          blocks[static_cast<std::size_t>(r.world_rank())]};
      if (r.world_rank() == root) a.recv = simmpi::MutBytes{out};
      co_await gather_binomial(a);
    });
    for (int w = 0; w < p; ++w) {
      EXPECT_EQ(0, std::memcmp(out.data() + static_cast<std::size_t>(w) * block,
                               blocks[w].data(), block))
          << "root " << root << " block " << w;
    }
  }
}

TEST(Scatter, BinomialDeliversEachBlock) {
  for (int root : {0, 4}) {
    Machine m(net::test_cluster(3), 3, 2);
    const int p = m.world_size();
    const std::size_t block = 16;
    std::vector<std::byte> all(static_cast<std::size_t>(p) * block);
    for (int w = 0; w < p; ++w) {
      auto b = pattern(block, 200 + w);
      std::memcpy(all.data() + static_cast<std::size_t>(w) * block, b.data(),
                  block);
    }
    std::vector<std::vector<std::byte>> outs(static_cast<std::size_t>(p));
    for (auto& o : outs) o.resize(block);
    m.run([&](Rank& r) -> sim::CoTask<void> {
      CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.root = root;
      a.count = block;
      a.dt = Dtype::u8;
      if (r.world_rank() == root) a.send = simmpi::ConstBytes{all};
      a.recv =
          simmpi::MutBytes{outs[static_cast<std::size_t>(r.world_rank())]};
      co_await scatter_binomial(a);
    });
    for (int w = 0; w < p; ++w) {
      EXPECT_EQ(outs[w], pattern(block, 200 + w)) << "root " << root
                                                  << " rank " << w;
    }
  }
}

// ---------------------------------------------------------------------------
// Allgather

class AllgatherSweep
    : public ::testing::TestWithParam<std::tuple<Algo, int, int>> {};

TEST_P(AllgatherSweep, EveryRankSeesAllBlocks) {
  const auto [algo, nodes, ppn] = GetParam();
  Machine m(net::test_cluster(nodes), nodes, ppn);
  const int p = m.world_size();
  const std::size_t block = 20;
  std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(p));
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
  for (int w = 0; w < p; ++w) {
    in[w] = pattern(block, 300 + w);
    out[w].resize(static_cast<std::size_t>(p) * block);
  }
  const CollDescriptor& d =
      design(CollKind::allgather, kAllgatherAlgos[algo.index]);
  const CollSpec spec;
  m.run([&](Rank& r) -> sim::CoTask<void> {
    CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = block;
    a.dt = Dtype::u8;
    a.send = simmpi::ConstBytes{in[static_cast<std::size_t>(r.world_rank())]};
    a.recv = simmpi::MutBytes{out[static_cast<std::size_t>(r.world_rank())]};
    co_await d.make(a, spec);
  });
  for (int w = 0; w < p; ++w) {
    for (int b = 0; b < p; ++b) {
      EXPECT_EQ(0, std::memcmp(out[w].data() +
                                   static_cast<std::size_t>(b) * block,
                               in[b].data(), block))
          << "rank " << w << " block " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Allgather, AllgatherSweep,
    ::testing::Combine(::testing::ValuesIn(positions(kAllgatherAlgos)),
                       ::testing::Values(2, 3, 4), ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      return name_part(kAllgatherAlgos[std::get<0>(info.param).index]) + "_" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Reduce-scatter

TEST(ReduceScatter, RingBlocksAreExact) {
  for (int nodes : {2, 3}) {
    for (int ppn : {1, 4}) {
      Machine m(net::test_cluster(nodes), nodes, ppn);
      const int p = m.world_size();
      const std::size_t bc = 17;  // elements per rank
      const std::size_t total = bc * static_cast<std::size_t>(p);
      std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(p));
      std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
      for (int w = 0; w < p; ++w) {
        in[w] = simmpi::make_operand(Dtype::i64, total, w, ReduceOp::sum);
        out[w].resize(bc * 8);
      }
      m.run([&](Rank& r) -> sim::CoTask<void> {
        CollArgs a;
        a.rank = &r;
        a.comm = &m.world();
        a.count = bc;
        a.dt = Dtype::i64;
        a.op = ReduceOp::sum;
        a.send =
            simmpi::ConstBytes{in[static_cast<std::size_t>(r.world_rank())]};
        a.recv =
            simmpi::MutBytes{out[static_cast<std::size_t>(r.world_rank())]};
        co_await reduce_scatter_ring(a);
      });
      const auto ref =
          simmpi::reference_allreduce(Dtype::i64, total, p, ReduceOp::sum);
      for (int w = 0; w < p; ++w) {
        EXPECT_EQ(0, std::memcmp(out[w].data(),
                                 ref.data() + static_cast<std::size_t>(w) *
                                                  bc * 8,
                                 bc * 8))
            << nodes << "x" << ppn << " rank " << w;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Barrier

TEST(BarrierColl, AllRanksLeaveAfterLastArrives) {
  for (const char* algo : {"dissemination", "single-leader", "auto"}) {
    Machine m(net::test_cluster(3), 3, 4);
    std::vector<sim::Time> exits(static_cast<std::size_t>(m.world_size()));
    const sim::Time skew = sim::us(50.0);
    const CollDescriptor& d = design(CollKind::barrier, algo);
    const CollSpec spec;
    m.run([&](Rank& r) -> sim::CoTask<void> {
      co_await r.compute(skew * r.world_rank());
      CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      co_await d.make(a, spec);
      exits[static_cast<std::size_t>(r.world_rank())] = r.engine().now();
    });
    const sim::Time last_arrival = skew * (m.world_size() - 1);
    for (int w = 0; w < m.world_size(); ++w) {
      EXPECT_GE(exits[static_cast<std::size_t>(w)], last_arrival)
          << "rank " << w << " left the barrier early";
    }
  }
}

TEST(BarrierColl, WorksOnSubCommunicator) {
  Machine m(net::test_cluster(2), 2, 2);
  const simmpi::Comm& sub = m.make_comm({0, 3});
  m.run([&](Rank& r) -> sim::CoTask<void> {
    if (!sub.contains(r.world_rank())) co_return;
    CollArgs a;
    a.rank = &r;
    a.comm = &sub;
    co_await barrier_dissemination(a);
  });
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Non-blocking allreduce

TEST(NonBlocking, TwoConcurrentAllreducesComplete) {
  Machine m(net::test_cluster(4), 4, 2);
  const std::size_t count = 128;
  const int p = m.world_size();
  std::vector<std::vector<std::byte>> in1(static_cast<std::size_t>(p));
  std::vector<std::vector<std::byte>> out1(static_cast<std::size_t>(p));
  std::vector<std::vector<std::byte>> in2(static_cast<std::size_t>(p));
  std::vector<std::vector<std::byte>> out2(static_cast<std::size_t>(p));
  for (int w = 0; w < p; ++w) {
    in1[w] = simmpi::make_operand(Dtype::f32, count, w, ReduceOp::sum, 1);
    in2[w] = simmpi::make_operand(Dtype::f32, count, w, ReduceOp::sum, 2);
    out1[w].resize(count * 4);
    out2[w].resize(count * 4);
  }
  m.run([&](Rank& r) -> sim::CoTask<void> {
    const auto w = static_cast<std::size_t>(r.world_rank());
    core::CollSpec spec;
    spec.algo = "rd";
    coll::CollArgs a1;
    a1.rank = &r;
    a1.comm = &m.world();
    a1.count = count;
    a1.send = simmpi::ConstBytes{in1[w]};
    a1.recv = simmpi::MutBytes{out1[w]};
    coll::CollArgs a2 = a1;
    a2.send = simmpi::ConstBytes{in2[w]};
    a2.recv = simmpi::MutBytes{out2[w]};
    a2.tag_base = 256;  // disjoint tag namespace for the concurrent op
    auto f1 = core::start_collective(core::CollKind::allreduce, a1, spec);
    auto f2 = core::start_collective(core::CollKind::allreduce, a2, spec);
    std::vector<std::shared_ptr<sim::Flag>> flags;
    flags.push_back(std::move(f1));
    flags.push_back(std::move(f2));
    co_await sim::wait_all(std::move(flags));
  });
  const auto ref1 =
      simmpi::reference_allreduce(Dtype::f32, count, p, ReduceOp::sum, 1);
  const auto ref2 =
      simmpi::reference_allreduce(Dtype::f32, count, p, ReduceOp::sum, 2);
  for (int w = 0; w < p; ++w) {
    EXPECT_EQ(out1[w], ref1);
    EXPECT_EQ(out2[w], ref2);
  }
}

TEST(NonBlocking, OverlapsWithCompute) {
  // The non-blocking allreduce should overlap with unrelated local compute:
  // total time < compute + blocking-allreduce time.
  auto run = [](bool overlap) {
    simmpi::RunOptions ropt;
    ropt.with_data = false;
    Machine m(net::test_cluster(4), 4, 2, ropt);
    m.run([&, overlap](Rank& r) -> sim::CoTask<void> {
      core::CollSpec spec;
      spec.algo = "rd";
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 65536;
      a.inplace = true;
      if (overlap) {
        auto f = core::start_collective(core::CollKind::allreduce, a, spec);
        co_await r.compute(sim::us(200.0));
        co_await f->wait();
      } else {
        co_await core::run_collective(core::CollKind::allreduce, a, spec);
        co_await r.compute(sim::us(200.0));
      }
    });
    return m.now();
  };
  EXPECT_LT(run(true), run(false));
}

}  // namespace
}  // namespace dpml::coll
