// SHArP fabric substrate semantics and the paper's §4.3/§6.3 behaviours.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "sharp/sharp.hpp"
#include "simmpi/verify.hpp"

namespace dpml::sharp {
namespace {

using simmpi::Dtype;
using simmpi::Machine;
using simmpi::Rank;
using simmpi::ReduceOp;

TEST(SharpFabric, RequiresSharpCapableCluster) {
  Machine m(net::cluster_b(), 2, 2);  // cluster B has no SHArP
  EXPECT_THROW(SharpFabric f(m), util::InvariantError);
}

TEST(SharpFabric, GroupCreationAndLimits) {
  Machine m(net::test_cluster(4), 4, 2);  // test cluster: max_groups = 4
  SharpFabric f(m);
  std::vector<int> members{0, 2, 4, 6};
  const Group& g = f.create_group(members);
  EXPECT_EQ(g.members, members);
  EXPECT_EQ(f.groups_live(), 1);
  f.create_group({0, 2});
  f.create_group({0, 4});
  f.create_group({0, 6});
  EXPECT_THROW(f.create_group({2, 4}), SharpError);
  f.destroy_group(g.id);
  EXPECT_EQ(f.groups_live(), 3);
  f.create_group({2, 4});  // slot freed
  EXPECT_THROW(f.destroy_group(999), util::InvariantError);
}

TEST(SharpFabric, NamedGroupIsCachedAndChecked) {
  Machine m(net::test_cluster(4), 4, 2);
  SharpFabric f(m);
  const Group& a = f.named_group("leaders", {0, 2, 4});
  const Group& b = f.named_group("leaders", {0, 2, 4});
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(f.groups_live(), 1);
  EXPECT_THROW(f.named_group("leaders", {0, 2}), util::InvariantError);
}

TEST(SharpFabric, TreeDepthFollowsTopology) {
  // test_cluster: 4 nodes per leaf switch.
  Machine m(net::test_cluster(8), 8, 1);
  SharpFabric f(m);
  EXPECT_EQ(f.create_group({0, 1, 2, 3}).levels, 1);  // one leaf
  EXPECT_EQ(f.create_group({0, 7}).levels, 2);        // leaf + core
}

TEST(SharpFabric, PayloadLimitEnforced) {
  Machine m(net::test_cluster(2), 2, 1);
  SharpFabric f(m);
  EXPECT_TRUE(f.supports(1024));
  EXPECT_FALSE(f.supports(2u << 20));
  const Group& g = f.create_group({0, 1});
  EXPECT_THROW(
      m.run([&](Rank& r) -> sim::CoTask<void> {
        co_await f.allreduce(r, g, (2u << 20) / 4, Dtype::f32,
                             ReduceOp::sum, {}, {});
      }),
      SharpError);
}

TEST(SharpFabric, AggregatesDataExactly) {
  Machine m(net::test_cluster(4), 4, 1);
  SharpFabric f(m);
  const Group& g = f.create_group({0, 1, 2, 3});
  const std::size_t count = 33;
  std::vector<std::vector<std::byte>> in(4);
  std::vector<std::vector<std::byte>> out(4);
  for (int w = 0; w < 4; ++w) {
    in[w] = simmpi::make_operand(Dtype::f32, count, w, ReduceOp::sum);
    out[w].resize(count * 4);
  }
  m.run([&](Rank& r) -> sim::CoTask<void> {
    const auto w = static_cast<std::size_t>(r.world_rank());
    co_await f.allreduce(r, g, count, Dtype::f32, ReduceOp::sum,
                         simmpi::ConstBytes{in[w]}, simmpi::MutBytes{out[w]});
  });
  const auto ref = simmpi::reference_allreduce(Dtype::f32, count, 4,
                                               ReduceOp::sum);
  for (int w = 0; w < 4; ++w) EXPECT_EQ(out[w], ref) << "rank " << w;
}

TEST(SharpFabric, BoundedConcurrencySerializesOps) {
  // test_cluster allows 2 outstanding ops. Run 4 disjoint pair-groups
  // concurrently and check the span exceeds ~2x a single op (serialized),
  // then compare against a fabric with a raised limit.
  auto run_with_limit = [](int limit) {
    auto cfg = net::test_cluster(8);
    cfg.sharp->max_outstanding_ops = limit;
    Machine m(cfg, 8, 1);
    SharpFabric f(m);
    std::vector<const Group*> gs;
    for (int i = 0; i < 4; ++i) {
      gs.push_back(&f.create_group({2 * i, 2 * i + 1}));
    }
    m.run([&](Rank& r) -> sim::CoTask<void> {
      const Group& g = *gs[static_cast<std::size_t>(r.world_rank() / 2)];
      co_await f.allreduce(r, g, 16, Dtype::f32, ReduceOp::sum, {}, {});
    });
    return m.now();
  };
  const sim::Time serialized = run_with_limit(1);
  const sim::Time parallel = run_with_limit(4);
  EXPECT_GT(serialized, parallel * 2);
}

TEST(SharpFabric, OperationOnDestroyedGroupRejected) {
  Machine m(net::test_cluster(2), 2, 1);
  SharpFabric f(m);
  const Group g = f.create_group({0, 1});  // copy, then destroy
  f.destroy_group(g.id);
  EXPECT_THROW(m.run([&](Rank& r) -> sim::CoTask<void> {
                 co_await f.allreduce(r, g, 4, Dtype::f32, ReduceOp::sum, {},
                                      {});
               }),
               util::InvariantError);
}

// ---------------------------------------------------------------------------
// Design-level behaviour (paper Figure 8).

double lat(const net::ClusterConfig& cfg, int nodes, int ppn,
           std::size_t bytes, const char* algo) {
  core::CollSpec s;
  s.algo = algo;
  core::MeasureOptions opt;
  opt.iterations = 3;
  opt.warmup = 1;
  return core::measure_collective(core::CollKind::allreduce, cfg, nodes, ppn,
                                  bytes, s, opt)
      .avg_us;
}

TEST(SharpDesigns, BeatHostBasedForSmallMessages) {
  auto cfg = net::cluster_a();
  const double host = lat(cfg, 16, 1, 16, "mvapich2");
  const double sharp = lat(cfg, 16, 1, 16, "sharp-node-leader");
  // Paper: up to 2.5x at ppn=1 for small messages.
  EXPECT_GT(host / sharp, 1.8);
  EXPECT_LT(host / sharp, 4.0);
}

TEST(SharpDesigns, HostBasedWinsAtFourKilobytes) {
  auto cfg = net::cluster_a();
  const double host = lat(cfg, 16, 1, 4096, "mvapich2");
  const double sharp = lat(cfg, 16, 1, 4096, "sharp-node-leader");
  // Paper: crossover between 2KB and 4KB.
  EXPECT_LT(host, sharp);
}

TEST(SharpDesigns, SocketLeaderBeatsNodeLeaderAtHighPpn) {
  auto cfg = net::cluster_a();
  const double node = lat(cfg, 16, 28, 256, "sharp-node-leader");
  const double sock = lat(cfg, 16, 28, 256, "sharp-socket-leader");
  // Paper §6.3: socket-leader avoids the cross-socket gather/broadcast.
  EXPECT_LT(sock, node);
}

TEST(SharpDesigns, DesignsCoincideAtOneProcessPerNode) {
  auto cfg = net::cluster_a();
  const double node = lat(cfg, 16, 1, 64, "sharp-node-leader");
  const double sock = lat(cfg, 16, 1, 64, "sharp-socket-leader");
  EXPECT_DOUBLE_EQ(node, sock);
}

TEST(SharpDesigns, OversizedPayloadFallsBackToHostPath) {
  auto cfg = net::cluster_a();
  cfg.sharp->max_payload = 1024;
  core::CollSpec s;
  s.algo = "sharp-socket-leader";
  core::MeasureOptions opt;
  opt.with_data = true;
  const auto r = core::measure_collective(core::CollKind::allreduce, cfg, 4, 4,
                                          8192, s, opt);
  EXPECT_TRUE(r.verified);  // completed via the host-based fallback
}

}  // namespace
}  // namespace dpml::sharp
