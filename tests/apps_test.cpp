// Workload kernels: osu_mbw_mr, HPCG DDOT, miniAMR refinement, and the
// exact-value lock on every kernel's reported numbers.
#include <gtest/gtest.h>

#include <string>

#include "apps/dl.hpp"
#include "apps/hpcg.hpp"
#include "apps/miniamr.hpp"
#include "apps/osu.hpp"
#include "apps/replay.hpp"
#include "apps/stencil.hpp"
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

// Option errors name the kernel, the field and its value.

template <typename F>
std::string error_of(F run) {
  try {
    run();
  } catch (const util::InvariantError& e) {
    return e.what();
  }
  return "(no error)";
}

TEST(AppOptions, HpcgNamesIterationsAndNodes) {
  HpcgOptions o;
  o.iterations = 0;
  EXPECT_THROW(run_hpcg(net::cluster_a(), o), util::InvariantError);
  EXPECT_EQ(error_of([&] { run_hpcg(net::cluster_a(), o); }),
            "hpcg: iterations must be >= 1, got 0");
  o.iterations = 1;
  o.nodes = 0;
  EXPECT_EQ(error_of([&] { run_hpcg(net::cluster_a(), o); }),
            "hpcg: nodes must be >= 1, got 0");
}

TEST(AppOptions, MiniAmrNamesBlocksPerRank) {
  MiniAmrOptions o;
  o.blocks_per_rank = -2;
  EXPECT_THROW(run_miniamr(net::cluster_c(), o), util::InvariantError);
  EXPECT_EQ(error_of([&] { run_miniamr(net::cluster_c(), o); }),
            "miniamr: blocks_per_rank must be >= 1, got -2");
}

TEST(AppOptions, StencilNamesCheckEveryAndPpn) {
  StencilOptions o;
  o.nodes = 2;
  o.ppn = 4;
  o.check_every = 0;
  EXPECT_THROW(run_stencil(net::test_cluster(2), o), util::InvariantError);
  EXPECT_EQ(error_of([&] { run_stencil(net::test_cluster(2), o); }),
            "stencil: check_every must be >= 1, got 0");
  o.check_every = 1;
  o.ppn = 9;  // the test cluster has 4 cores a node
  EXPECT_EQ(error_of([&] { run_stencil(net::test_cluster(2), o); }),
            "stencil: ppn must be in [1, 4] on cluster test, got 9");
}

TEST(AppOptions, DlNamesBucketsAndBucketBytes) {
  DlOptions o;
  o.buckets = 0;
  EXPECT_THROW(run_dl_training(net::cluster_b(), o), util::InvariantError);
  EXPECT_EQ(error_of([&] { run_dl_training(net::cluster_b(), o); }),
            "dl: buckets must be >= 1, got 0");
  o.buckets = 1;
  o.bucket_bytes = 6;
  EXPECT_EQ(error_of([&] { run_dl_training(net::cluster_b(), o); }),
            "dl: bucket_bytes must be a multiple of the 4-byte f32 "
            "element, got 6");
}

TEST(AppOptions, ReplayNamesRepetitions) {
  ReplayOptions o;
  o.repetitions = 0;
  const auto trace = parse_trace(example_trace());
  EXPECT_THROW(replay_trace(net::cluster_b(), trace, o), util::InvariantError);
  EXPECT_EQ(error_of([&] { replay_trace(net::cluster_b(), trace, o); }),
            "replay: repetitions must be >= 1, got 0");
}

TEST(AppOptions, OsuNamesPairsWindowAndIterations) {
  MbwMrOptions o;
  o.window = 0;
  EXPECT_THROW(osu_mbw_mr(net::cluster_b(), o), util::InvariantError);
  EXPECT_EQ(error_of([&] { osu_mbw_mr(net::cluster_b(), o); }),
            "osu_mbw_mr: window must be >= 1, got 0");
  o.window = 1;
  o.pairs = 8;
  o.intra_node = true;  // 16 cores; the test cluster has 4 a node
  EXPECT_EQ(error_of([&] { osu_mbw_mr(net::test_cluster(2), o); }),
            "osu_mbw_mr: pairs must be in [1, 2] on cluster test, got 8");
  EXPECT_EQ(error_of([&] { osu_latency(net::cluster_b(), 8, false, 0); }),
            "osu_latency: iterations must be >= 1, got 0");
}

// Exact-value lock. Every number below derives from integer picosecond
// ticks, so it is compared with EXPECT_EQ: a kernel refactor that changes
// one event's order or one compute charge shows up here.

TEST(AppsGolden, HpcgHostAndSharp) {
  HpcgOptions o;
  o.nodes = 2;
  o.ppn = 4;
  o.iterations = 3;
  o.spec.algo = "mvapich2";
  const auto host = run_hpcg(net::cluster_a(), o);
  EXPECT_EQ(host.ddot_s, sim::to_seconds(141754788));
  EXPECT_EQ(host.total_s, sim::to_seconds(407175588));
  EXPECT_EQ(host.ddots, 9);
  o.spec.algo = "sharp-socket-leader";
  const auto sharp = run_hpcg(net::cluster_a(), o);
  EXPECT_EQ(sharp.ddot_s, sim::to_seconds(138506400));
  EXPECT_EQ(sharp.total_s, sim::to_seconds(403927200));
  EXPECT_EQ(sharp.ddots, 9);
}

TEST(AppsGolden, MiniAmrPerRankCompute) {
  MiniAmrOptions o;
  o.nodes = 2;
  o.ppn = 4;
  o.refine_steps = 6;
  o.blocks_per_rank = 4;
  const auto r = run_miniamr(net::cluster_c(), o);
  EXPECT_EQ(r.refine_s, sim::to_seconds(73963968));
  EXPECT_EQ(r.final_blocks, 61u);
}

TEST(AppsGolden, StencilPerRankPeers) {
  StencilOptions o;
  o.nodes = 3;
  o.ppn = 4;
  o.sweeps = 8;
  o.check_every = 3;
  o.local_dim = 16;
  const auto r = run_stencil(net::cluster_b(), o);
  EXPECT_EQ(r.grid, (std::array<int, 3>{3, 2, 2}));
  EXPECT_EQ(r.halo_s, sim::to_seconds(14784372));
  EXPECT_EQ(r.allreduce_s, sim::to_seconds(11884796));
  EXPECT_EQ(r.residual_checks, 2);
}

TEST(AppsGolden, DlOverlapOnAndOff) {
  DlOptions o;
  o.nodes = 2;
  o.ppn = 4;
  o.steps = 2;
  o.buckets = 4;
  o.bucket_bytes = 64 << 10;
  o.overlap = true;
  const auto overlapped = run_dl_training(net::cluster_b(), o);
  EXPECT_EQ(overlapped.step_s, sim::to_seconds(3525540264) / 2);
  EXPECT_EQ(overlapped.exposed_comm_s, sim::to_seconds(125500264) / 2);
  o.overlap = false;
  const auto blocking = run_dl_training(net::cluster_b(), o);
  EXPECT_EQ(blocking.step_s, sim::to_seconds(3902161056) / 2);
  EXPECT_EQ(blocking.exposed_comm_s, sim::to_seconds(502121056) / 2);
}

TEST(AppsGolden, ReplayExampleTrace) {
  ReplayOptions o;
  o.nodes = 2;
  o.ppn = 4;
  const auto r =
      replay_trace(net::cluster_b(), parse_trace(example_trace()), o);
  EXPECT_EQ(r.comm_s, sim::to_seconds(2251354492));
  EXPECT_EQ(r.ops, 41);
}

TEST(AppsGolden, OsuLatencyAndMbwMr) {
  const auto cfg = net::cluster_b();
  // 16 pingpong iterations: the one-way latency is the run over 32.
  EXPECT_EQ(osu_latency(cfg, 8), sim::to_seconds(32960000) / 32);
  EXPECT_EQ(osu_latency(cfg, 8, /*intra_node=*/true),
            sim::to_seconds(11251200) / 32);
  EXPECT_EQ(osu_latency(cfg, 64 << 10), sim::to_seconds(872230800) / 32);
  MbwMrOptions o;
  o.pairs = 2;
  o.bytes = 4096;
  const auto inter = osu_mbw_mr(cfg, o);
  EXPECT_EQ(inter.seconds, sim::to_seconds(124057600));
  EXPECT_EQ(inter.mb_per_s, 4226.1659100288898);
  o.intra_node = true;
  const auto intra = osu_mbw_mr(cfg, o);
  EXPECT_EQ(intra.seconds, sim::to_seconds(116381312));
  EXPECT_EQ(intra.mb_per_s, 4504.9157033046686);
}

}  // namespace
}  // namespace dpml::apps
