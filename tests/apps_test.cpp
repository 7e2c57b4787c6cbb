// Workload kernels: osu_mbw_mr, HPCG DDOT, miniAMR refinement.
#include <gtest/gtest.h>

#include "apps/hpcg.hpp"
#include "apps/miniamr.hpp"
#include "apps/osu.hpp"
#include "net/cluster.hpp"

namespace dpml::apps {
namespace {

TEST(OsuMbwMr, SinglePairBandwidthIsPositiveAndBounded) {
  auto cfg = net::cluster_b();
  MbwMrOptions o;
  o.pairs = 1;
  o.bytes = 64 * 1024;
  const auto r = osu_mbw_mr(cfg, o);
  EXPECT_GT(r.mb_per_s, 100.0);
  EXPECT_LT(r.mb_per_s, cfg.nic.link_bw * 1000.0);  // cannot exceed the link
}

TEST(OsuMbwMr, IntraNodeScalesWithPairs) {
  auto cfg = net::cluster_b();
  const double rel = relative_throughput(cfg, 8, 4096, /*intra_node=*/true);
  EXPECT_GT(rel, 5.0);  // Figure 1(a): close to #pairs
}

TEST(OsuMbwMr, InterNodeIbScalesAtAllSizes) {
  auto cfg = net::cluster_b();
  EXPECT_GT(relative_throughput(cfg, 4, 64, false), 3.0);
  EXPECT_GT(relative_throughput(cfg, 4, 256 * 1024, false), 3.0);
}

TEST(OsuMbwMr, InterNodeOpaHasZones) {
  auto cfg = net::cluster_c();
  EXPECT_GT(relative_throughput(cfg, 8, 64, false), 5.0);        // Zone A
  EXPECT_LT(relative_throughput(cfg, 8, 512 * 1024, false), 1.6);  // Zone C
}

TEST(OsuMbwMr, MessageRateReportedConsistently) {
  auto cfg = net::cluster_c();
  MbwMrOptions o;
  o.pairs = 2;
  o.bytes = 8;
  const auto r = osu_mbw_mr(cfg, o);
  EXPECT_NEAR(r.mb_per_s * 1e6, r.msg_per_s * 8.0, 1.0);
}

TEST(OsuLatency, PingpongLatenciesAreOrdered) {
  auto cfg = net::cluster_b();
  const double small = osu_latency(cfg, 8);
  const double large = osu_latency(cfg, 1 << 20);
  EXPECT_GT(small, 0.5e-6);   // ~1us MPI pingpong
  EXPECT_LT(small, 3e-6);
  EXPECT_GT(large, small * 10);  // bandwidth term dominates
  // Intra-node (same socket) is faster than crossing the fabric.
  EXPECT_LT(osu_latency(cfg, 8, /*intra_node=*/true), small);
}

TEST(OsuMbwMr, RejectsOverwideShapes) {
  auto cfg = net::test_cluster(2);  // 4 cores per node
  MbwMrOptions o;
  o.pairs = 8;
  o.intra_node = true;  // needs 16 cores
  EXPECT_THROW(osu_mbw_mr(cfg, o), util::InvariantError);
}

TEST(Hpcg, RunsAndTimesDdot) {
  auto cfg = net::cluster_a();
  HpcgOptions o;
  o.nodes = 2;
  o.ppn = 28;
  o.iterations = 5;
  o.spec.algo = "mvapich2";
  const auto r = run_hpcg(cfg, o);
  EXPECT_EQ(r.ddots, 15);  // 3 per iteration
  EXPECT_GT(r.ddot_s, 0.0);
  EXPECT_GT(r.total_s, r.ddot_s);
}

TEST(Hpcg, SharpImprovesDdot) {
  auto cfg = net::cluster_a();
  HpcgOptions host;
  host.nodes = 2;
  host.ppn = 28;
  host.iterations = 5;
  host.spec.algo = "mvapich2";
  HpcgOptions sharp = host;
  sharp.spec.algo = "sharp-socket-leader";
  const auto a = run_hpcg(cfg, host);
  const auto b = run_hpcg(cfg, sharp);
  // Paper Figure 11(a): SHArP designs improve DDOT time.
  EXPECT_LT(b.ddot_s, a.ddot_s);
}

TEST(Hpcg, Deterministic) {
  auto cfg = net::cluster_a();
  HpcgOptions o;
  o.nodes = 2;
  o.ppn = 4;
  o.iterations = 3;
  o.spec.algo = "dpml";
  const auto a = run_hpcg(cfg, o);
  const auto b = run_hpcg(cfg, o);
  EXPECT_EQ(a.ddot_s, b.ddot_s);
  EXPECT_EQ(a.total_s, b.total_s);
}

TEST(MiniAmr, RunsAndEvolvesBlocks) {
  auto cfg = net::cluster_c();
  MiniAmrOptions o;
  o.nodes = 2;
  o.ppn = 8;
  o.refine_steps = 10;
  o.spec.algo = "mvapich2";
  const auto r = run_miniamr(cfg, o);
  EXPECT_GT(r.refine_s, 0.0);
  EXPECT_GT(r.total_s, r.refine_s * 0.5);
  EXPECT_GT(r.final_blocks, 0u);
}

TEST(MiniAmr, DpmlImprovesRefinementTime) {
  auto cfg = net::cluster_c();
  MiniAmrOptions base;
  base.nodes = 4;
  base.ppn = 28;
  base.refine_steps = 6;
  base.blocks_per_rank = 32;  // large refinement vectors
  base.spec.algo = "mvapich2";
  MiniAmrOptions ours = base;
  ours.spec.algo = "dpml-auto";
  const auto a = run_miniamr(cfg, base);
  const auto b = run_miniamr(cfg, ours);
  // Paper Figure 11(b): up to ~40% over MVAPICH2 on cluster C.
  EXPECT_LT(b.refine_s, a.refine_s);
}

TEST(MiniAmr, DeterministicAcrossRuns) {
  auto cfg = net::cluster_d();
  MiniAmrOptions o;
  o.nodes = 2;
  o.ppn = 16;
  o.refine_steps = 5;
  o.spec.algo = "intelmpi";
  const auto a = run_miniamr(cfg, o);
  const auto b = run_miniamr(cfg, o);
  EXPECT_EQ(a.refine_s, b.refine_s);
  EXPECT_EQ(a.final_blocks, b.final_blocks);
}

}  // namespace
}  // namespace dpml::apps
