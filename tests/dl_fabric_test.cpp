// DL gradient kernel + fat-tree core oversubscription.
#include <gtest/gtest.h>

#include "apps/dl.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "simmpi/machine.hpp"

namespace dpml {
namespace {

using simmpi::Machine;
using simmpi::Rank;

TEST(DlTraining, RunsAndReportsTimes) {
  auto cfg = net::cluster_b();
  apps::DlOptions o;
  o.nodes = 2;
  o.ppn = 8;
  o.steps = 2;
  o.buckets = 4;
  o.bucket_bytes = 1 << 20;
  o.spec.algo = "dpml";
  const auto r = apps::run_dl_training(cfg, o);
  EXPECT_GT(r.step_s, 0.0);
  EXPECT_GT(r.total_s, r.step_s);
  EXPECT_GE(r.exposed_comm_s, 0.0);
}

TEST(DlTraining, OverlapHidesCommunication) {
  auto cfg = net::cluster_b();
  apps::DlOptions base;
  base.nodes = 4;
  base.ppn = 8;
  base.steps = 2;
  base.buckets = 8;
  base.bucket_bytes = 2 << 20;
  base.spec.algo = "dpml";
  base.spec.leaders = 8;
  base.overlap = false;
  apps::DlOptions with = base;
  with.overlap = true;
  const auto blocking = apps::run_dl_training(cfg, base);
  const auto overlapped = apps::run_dl_training(cfg, with);
  EXPECT_LT(overlapped.step_s, blocking.step_s);
  EXPECT_LT(overlapped.exposed_comm_s, blocking.exposed_comm_s);
}

TEST(DlTraining, DpmlBeatsMvapichPerStep) {
  auto cfg = net::cluster_b();
  apps::DlOptions mva;
  mva.nodes = 4;
  mva.ppn = 28;
  mva.steps = 2;
  mva.buckets = 8;
  mva.spec.algo = "mvapich2";
  apps::DlOptions dp = mva;
  dp.spec.algo = "dpml-auto";
  EXPECT_LT(apps::run_dl_training(cfg, dp).step_s,
            apps::run_dl_training(cfg, mva).step_s);
}

TEST(DlTraining, Deterministic) {
  auto cfg = net::cluster_c();
  apps::DlOptions o;
  o.nodes = 2;
  o.ppn = 4;
  o.steps = 2;
  o.buckets = 3;
  o.bucket_bytes = 1 << 18;
  o.spec.algo = "intelmpi";
  EXPECT_EQ(apps::run_dl_training(cfg, o).total_s,
            apps::run_dl_training(cfg, o).total_s);
}

// ---------------------------------------------------------------------------
// Fat-tree core oversubscription

// Aggregate cross-leaf throughput with many node pairs; with a heavily
// oversubscribed core it must cap at the uplink pool.
double cross_leaf_seconds(net::ClusterConfig cfg, double oversub) {
  cfg.oversubscription = oversub;
  simmpi::RunOptions opt;
  opt.with_data = false;
  // 8 nodes on leaf 0 all send to 8 nodes on leaf 1 (nodes_per_leaf = 24 on
  // cluster B, so shrink the leaf to force cross-leaf traffic).
  cfg.nodes_per_leaf = 8;
  Machine m(cfg, 16, 1, opt);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    const std::size_t bytes = 512 * 1024;
    if (r.node_id() < 8) {
      for (int i = 0; i < 4; ++i) {
        co_await r.send(m.world(), r.node_id() + 8, i, bytes);
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        co_await r.recv(m.world(), r.node_id() - 8, i, bytes);
      }
    }
  });
  return sim::to_seconds(m.now());
}

TEST(Oversubscription, ThrottlesCrossLeafTraffic) {
  const double nonblocking = cross_leaf_seconds(net::cluster_b(), 1.0);
  // 4:1 oversubscription: uplink pool = 8*12/4 = 24 GB/s still exceeds the
  // ~20 GB/s of proc-bound demand (8 senders x 2.5 GB/s) -> no slowdown;
  // the core only binds when it actually becomes the bottleneck.
  const double oversub4 = cross_leaf_seconds(net::cluster_b(), 4.0);
  EXPECT_NEAR(oversub4, nonblocking, nonblocking * 0.05);
  // 16:1 -> 6 GB/s pool for 20 GB/s of demand: clearly throttled.
  const double oversub16 = cross_leaf_seconds(net::cluster_b(), 16.0);
  EXPECT_GT(oversub16, nonblocking * 2.0);
  // 64:1 -> 1.5 GB/s pool: throttled further still.
  const double oversub64 = cross_leaf_seconds(net::cluster_b(), 64.0);
  EXPECT_GT(oversub64, oversub16 * 2.0);
}

TEST(Oversubscription, SameLeafTrafficUnaffected) {
  auto run = [](double oversub) {
    auto cfg = net::cluster_b();
    cfg.oversubscription = oversub;
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(cfg, 4, 1, opt);  // 4 nodes share one 24-node leaf
    m.run([&](Rank& r) -> sim::CoTask<void> {
      if (r.node_id() == 0) {
        co_await r.send(m.world(), 1, 0, 256 * 1024);
      } else if (r.node_id() == 1) {
        co_await r.recv(m.world(), 0, 0, 256 * 1024);
      }
      co_return;
    });
    return m.now();
  };
  EXPECT_EQ(run(1.0), run(8.0));
}

TEST(Oversubscription, ClusterDPresetHasFiveFourthsCore) {
  EXPECT_NEAR(net::cluster_d().oversubscription, 1.25, 1e-12);
  EXPECT_EQ(net::cluster_b().oversubscription, 1.0);
}

TEST(Oversubscription, CollectivesRemainCorrect) {
  auto cfg = net::test_cluster(8);
  cfg.oversubscription = 2.0;
  cfg.nodes_per_leaf = 2;
  core::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 2;
  core::MeasureOptions opt;
  opt.with_data = true;
  opt.iterations = 2;
  opt.warmup = 0;
  const auto r = core::measure_collective(core::CollKind::allreduce, cfg, 8, 4,
                                          4096, spec, opt);
  EXPECT_TRUE(r.verified);
}

}  // namespace
}  // namespace dpml
