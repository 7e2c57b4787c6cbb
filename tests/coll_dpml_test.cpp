// DPML-specific behaviour: edge cases, phase structure, and the performance
// shapes the paper reports (leader scaling, pipelining, library baselines).
#include <gtest/gtest.h>

#include "coll/dpml.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"

namespace dpml::core {
namespace {

double lat(const net::ClusterConfig& cfg, int nodes, int ppn,
           std::size_t bytes, const CollSpec& spec) {
  MeasureOptions opt;
  opt.iterations = 3;
  opt.warmup = 1;
  return measure_collective(CollKind::allreduce, cfg, nodes, ppn, bytes, spec,
                            opt)
      .avg_us;
}

CollSpec dpml_spec(int leaders, int k = 1) {
  CollSpec s;
  s.algo = "dpml";
  s.leaders = leaders;
  s.pipeline_k = k;
  return s;
}

// ---------------------------------------------------------------------------
// Edge cases

TEST(Dpml, LeaderCountClampsToPpn) {
  auto cfg = net::test_cluster(2);
  CollSpec s = dpml_spec(64);  // ppn is only 4
  MeasureOptions opt;
  opt.with_data = true;
  const auto r =
      measure_collective(CollKind::allreduce, cfg, 2, 4, 1024, s, opt);
  EXPECT_TRUE(r.verified);
}

TEST(Dpml, SingleNodeSkipsInterPhase) {
  auto cfg = net::test_cluster(1);
  MeasureOptions opt;
  opt.with_data = true;
  const auto r = measure_collective(CollKind::allreduce, cfg, 1, 4, 4096,
                                    dpml_spec(2), opt);
  EXPECT_TRUE(r.verified);
}

TEST(Dpml, CountSmallerThanLeaders) {
  // 3 elements across 4 leaders: one partition is empty.
  auto cfg = net::test_cluster(2);
  MeasureOptions opt;
  opt.with_data = true;
  const auto r = measure_collective(CollKind::allreduce, cfg, 2, 4, 3 * 4,
                                    dpml_spec(4), opt);
  EXPECT_TRUE(r.verified);
}

TEST(Dpml, RejectsNonWorldComm) {
  simmpi::Machine m(net::test_cluster(2), 2, 2);
  const simmpi::Comm& sub = m.make_comm({0, 1});
  EXPECT_THROW(
      m.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
        if (!sub.contains(r.world_rank())) co_return;
        coll::CollArgs a;
        a.rank = &r;
        a.comm = &sub;
        a.count = 4;
        a.inplace = true;
        const coll::CollSpec spec;
        co_await coll::allreduce_dpml(a, spec);
      }),
      util::InvariantError);
}

TEST(Dpml, RejectsBadPipelineDepth) {
  simmpi::Machine m(net::test_cluster(2), 2, 2);
  EXPECT_THROW(
      m.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
        coll::CollArgs a;
        a.rank = &r;
        a.comm = &m.world();
        a.count = 4;
        a.inplace = true;
        coll::CollSpec spec;
        spec.pipeline_k = 0;
        co_await coll::allreduce_dpml(a, spec);
      }),
      util::InvariantError);
}

TEST(Dpml, NoLeakedCollectiveSlots) {
  simmpi::RunOptions ropt;
  ropt.with_data = false;
  simmpi::Machine m(net::test_cluster(2), 2, 4, ropt);
  m.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = 64;
    a.inplace = true;
    coll::CollSpec spec;
    spec.leaders = 2;
    for (int i = 0; i < 3; ++i) {
      co_await coll::allreduce_dpml(a, spec);
    }
  });
  EXPECT_EQ(m.node(0).live_slots(), 0u);
  EXPECT_EQ(m.node(1).live_slots(), 0u);
}

TEST(Partition, RaggedBlocks) {
  using coll::partition;
  // 10 elements over 4 parts: 3,3,2,2.
  EXPECT_EQ(partition(10, 4, 0).count, 3u);
  EXPECT_EQ(partition(10, 4, 1).count, 3u);
  EXPECT_EQ(partition(10, 4, 2).count, 2u);
  EXPECT_EQ(partition(10, 4, 3).count, 2u);
  EXPECT_EQ(partition(10, 4, 0).offset, 0u);
  EXPECT_EQ(partition(10, 4, 1).offset, 3u);
  EXPECT_EQ(partition(10, 4, 2).offset, 6u);
  EXPECT_EQ(partition(10, 4, 3).offset, 8u);
  // Partitions tile the range exactly.
  std::size_t covered = 0;
  for (int j = 0; j < 7; ++j) covered += partition(23, 7, j).count;
  EXPECT_EQ(covered, 23u);
  // Degenerate cases.
  EXPECT_EQ(partition(0, 4, 2).count, 0u);
  EXPECT_EQ(partition(3, 8, 7).count, 0u);
  EXPECT_THROW(partition(8, 4, 4), util::InvariantError);
}

// ---------------------------------------------------------------------------
// Performance shapes (paper §6.2, §6.4) — realistic cluster presets,
// metadata-only for speed, modest node counts to keep tests quick.

TEST(DpmlPerf, MoreLeadersWinForLargeMessagesOnIB) {
  auto cfg = net::cluster_b();
  const double l1 = lat(cfg, 16, 28, 512 * 1024, dpml_spec(1));
  const double l16 = lat(cfg, 16, 28, 512 * 1024, dpml_spec(16));
  // Paper Figure 5: ~4.9x at 512KB with 16 leaders vs 1.
  EXPECT_GT(l1 / l16, 3.0);
  EXPECT_LT(l1 / l16, 8.0);
}

TEST(DpmlPerf, MoreLeadersWinForLargeMessagesOnOpa) {
  auto cfg = net::cluster_c();
  const double l1 = lat(cfg, 16, 28, 512 * 1024, dpml_spec(1));
  const double l16 = lat(cfg, 16, 28, 512 * 1024, dpml_spec(16));
  // Paper Figure 6: ~4.3x.
  EXPECT_GT(l1 / l16, 3.0);
}

TEST(DpmlPerf, ExtraLeadersDoNotHelpSmallMessages) {
  auto cfg = net::cluster_b();
  const double l1 = lat(cfg, 8, 28, 64, dpml_spec(1));
  const double l16 = lat(cfg, 8, 28, 64, dpml_spec(16));
  EXPECT_LE(l1, l16 * 1.05);  // 1 leader at least as good (paper §6.2)
}

TEST(DpmlPerf, BeatsMvapich2ForLargeMessages) {
  auto cfg = net::cluster_b();
  CollSpec mv;
  mv.algo = "mvapich2";
  const double base = lat(cfg, 16, 28, 512 * 1024, mv);
  const double ours = lat(cfg, 16, 28, 512 * 1024, dpml_spec(16));
  // Paper Figure 9(b): up to ~3x on cluster B.
  EXPECT_GT(base / ours, 2.0);
}

TEST(DpmlPerf, MatchesSingleLeaderWhenLIsOne) {
  auto cfg = net::cluster_b();
  CollSpec sl;
  sl.algo = "single-leader";
  const double a = lat(cfg, 4, 8, 32 * 1024, sl);
  const double b = lat(cfg, 4, 8, 32 * 1024, dpml_spec(1));
  // Same structure up to the leader's self-copy through shared memory.
  EXPECT_NEAR(a, b, a * 0.25);
}

TEST(DpmlPerf, PipeliningHelpsVeryLargeMessagesOnOpa) {
  auto cfg = net::cluster_c();
  const double k1 = lat(cfg, 16, 28, 4 * 1024 * 1024, dpml_spec(4, 1));
  const double k8 = lat(cfg, 16, 28, 4 * 1024 * 1024, dpml_spec(4, 8));
  // DPML-Pipelined overlaps per-chunk latency/compute across rd steps.
  EXPECT_LT(k8, k1);
}

TEST(DpmlPerf, IntelBaselineBetweenMvapichAndDpmlAtScale) {
  auto cfg = net::cluster_d();
  CollSpec mv;
  mv.algo = "mvapich2";
  CollSpec im;
  im.algo = "intelmpi";
  const double t_mv = lat(cfg, 32, 64, 512 * 1024, mv);
  const double t_im = lat(cfg, 32, 64, 512 * 1024, im);
  const double t_dp = lat(cfg, 32, 64, 512 * 1024, dpml_spec(16));
  // Paper Figure 9(d)/10: DPML < Intel < MVAPICH2 for large messages.
  EXPECT_LT(t_dp, t_im);
  EXPECT_LT(t_im, t_mv);
}

TEST(DpmlPerf, HierarchicalBeatsFlatAtFullSubscription) {
  auto cfg = net::cluster_b();
  CollSpec flat;
  flat.algo = "rsa";
  const double t_flat = lat(cfg, 8, 28, 256 * 1024, flat);
  const double t_dpml = lat(cfg, 8, 28, 256 * 1024, dpml_spec(8));
  // Flat algorithms flood each NIC with ppn concurrent streams (paper §3).
  EXPECT_LT(t_dpml, t_flat);
}

}  // namespace
}  // namespace dpml::core
