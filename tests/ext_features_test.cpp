// Extension features: communication statistics, selection tables,
// multi-rail (multi-HCA) transport, and model-constant fitting.
#include <gtest/gtest.h>

#include "adapt/adapt.hpp"
#include "model/fit.hpp"
#include "net/cluster.hpp"
#include "simmpi/machine.hpp"

namespace dpml {
namespace {

using simmpi::Machine;
using simmpi::Rank;

// ---------------------------------------------------------------------------
// Communication statistics

TEST(Stats, CountsPointToPointTraffic) {
  simmpi::RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(2), 2, 2, opt);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.world_rank() == 0) {
      co_await r.send(m.world(), 2, 0, 100);   // inter-node eager
      co_await r.send(m.world(), 1, 0, 50);    // intra-node
      co_await r.send(m.world(), 2, 1, 8192);  // inter-node rendezvous (>4K)
    } else if (r.world_rank() == 1) {
      co_await r.recv(m.world(), 0, 0, 50);
    } else if (r.world_rank() == 2) {
      co_await r.recv(m.world(), 0, 0, 100);
      co_await r.recv(m.world(), 0, 1, 8192);
    }
    co_return;
  });
  const auto& s = m.comm_stats();
  EXPECT_EQ(s.net_messages, 2u);
  EXPECT_EQ(s.net_bytes, 8292u);
  EXPECT_EQ(s.rndv_handshakes, 1u);
  EXPECT_EQ(s.shm_messages, 1u);
  EXPECT_EQ(s.shm_bytes, 50u);
}

TEST(Stats, RecursiveDoublingMessageCount) {
  // rd over p=2^k ranks: each rank sends lg p messages (plus the initial
  // local copy, which is not a message).
  core::CollSpec spec;
  spec.algo = "rd";
  simmpi::RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(8), 8, 1, opt);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = 16;
    a.inplace = true;
    co_await core::run_collective(core::CollKind::allreduce, a, spec);
  });
  EXPECT_EQ(m.comm_stats().net_messages, 8u * 3u);  // p * lg p
}

TEST(Stats, DpmlMovesLessNetDataThanFlat) {
  auto run = [](const char* algo) {
    core::CollSpec spec;
    spec.algo = algo;
    spec.leaders = 4;
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(net::test_cluster(4), 4, 4, opt);
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 64 * 1024;
      a.inplace = true;
      co_await core::run_collective(core::CollKind::allreduce, a, spec);
    });
    return m.comm_stats().net_bytes;
  };
  // Hierarchical designs put only the leaders on the fabric.
  EXPECT_LT(run("dpml"), run("rd"));
}

TEST(Stats, NicUtilizationHigherUnderFlatAlgorithms) {
  auto run = [](const char* algo) {
    core::CollSpec spec;
    spec.algo = algo;
    spec.leaders = 8;
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(net::cluster_b(), 4, 28, opt);
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 128 * 1024;
      a.inplace = true;
      co_await core::run_collective(core::CollKind::allreduce, a, spec);
    });
    return m.avg_tx_utilization();
  };
  const double flat = run("rsa");
  const double dpml = run("dpml");
  EXPECT_GT(flat, 0.0);
  EXPECT_GT(dpml, 0.0);
  EXPECT_LE(dpml, 1.0);
}

// ---------------------------------------------------------------------------
// Selection tables (level-0 adaptive tables)

constexpr coll::CollKind kAllreduce = coll::CollKind::allreduce;

TEST(Selection, SelectRespectsThresholds) {
  adapt::AdaptiveTable::Entry small;
  small.max_bytes = 1024;
  small.spec.algo = "rd";
  adapt::AdaptiveTable::Entry mid;
  mid.max_bytes = 65536;
  mid.spec.algo = "dpml";
  mid.spec.leaders = 4;
  adapt::AdaptiveTable::Entry rest;
  rest.max_bytes = std::numeric_limits<std::size_t>::max();
  rest.spec.algo = "dpml";
  rest.spec.leaders = 16;
  const adapt::AdaptiveTable t({small, mid, rest});
  EXPECT_EQ(t.level0(kAllreduce, 4).algo, "rd");
  EXPECT_EQ(t.level0(kAllreduce, 1024).algo, "rd");
  EXPECT_EQ(t.level0(kAllreduce, 1025).leaders, 4);
  EXPECT_EQ(t.level0(kAllreduce, 1 << 20).leaders, 16);
}

TEST(Selection, SerializeParseRoundTrip) {
  const std::string text =
      "# comment\n"
      "<=2048  sharp-socket-leader\n"
      "<=65536  dpml 8 1\n"
      "*  dpml 16 4\n";
  const auto t = adapt::AdaptiveTable::parse(text);
  ASSERT_EQ(t.entries().size(), 3u);
  EXPECT_EQ(t.level0(kAllreduce, 100).algo, "sharp-socket-leader");
  EXPECT_EQ(t.level0(kAllreduce, 1 << 20).pipeline_k, 4);
  const auto again = adapt::AdaptiveTable::parse(t.serialize());
  EXPECT_EQ(again.entries().size(), t.entries().size());
  EXPECT_EQ(again.level0(kAllreduce, 4096).leaders, 8);
}

TEST(Selection, RejectsMalformedTables) {
  // An empty table parses, but dispatching through it fails naming the
  // kind it has no entries for.
  const auto empty = adapt::AdaptiveTable::parse("");
  EXPECT_TRUE(empty.empty());
  simmpi::RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(2), 2, 2, opt);
  try {
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 16;
      a.inplace = true;
      co_await adapt::run_collective(kAllreduce, a, empty);
    });
    ADD_FAILURE() << "expected InvariantError";
  } catch (const util::InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no entries for allreduce"), std::string::npos)
        << what;
  }
  EXPECT_THROW(adapt::AdaptiveTable::parse("<=100 dpml 4\n"),
               util::InvariantError);  // no catch-all
  EXPECT_THROW(adapt::AdaptiveTable::parse("<=100 nonsense\n* dpml 4\n"),
               util::InvariantError);
  EXPECT_THROW(adapt::AdaptiveTable::parse("<=200 dpml 2\n<=100 dpml 4\n"
                                           "* dpml 8\n"),
               util::InvariantError);  // descending thresholds
  EXPECT_THROW(adapt::AdaptiveTable::parse("100 dpml 4\n* dpml 8\n"),
               util::InvariantError);  // missing '<='
}

TEST(Selection, TunedTableIsOrderedAndUsable) {
  auto cfg = net::cluster_b();
  core::MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  const auto t = adapt::AdaptiveTable::tune(kAllreduce, cfg, 8, 28,
                                            {256, 16384, 262144}, opt);
  ASSERT_FALSE(t.empty());
  // Larger probes should never select fewer leaders than the small probe.
  EXPECT_LE(t.level0(kAllreduce, 64).leaders,
            t.level0(kAllreduce, 262144).leaders);
}

TEST(Selection, DispatcherRunsThroughTable) {
  const auto t = adapt::AdaptiveTable::parse("<=1024 rd\n* dpml 4 1\n");
  simmpi::RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(2), 2, 4, opt);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = 4096;  // 16KB -> dpml entry
    a.inplace = true;
    co_await adapt::run_collective(kAllreduce, a, t);
  });
  SUCCEED();
}

TEST(Selection, FabriclessFallbackForSharpEntries) {
  const auto t = adapt::AdaptiveTable::parse("<=4096 sharp-node-leader\n"
                                             "* dpml 8 1\n");
  simmpi::RunOptions opt;
  opt.with_data = false;
  // One resolver for the library and the CLI: the SHArP entry as written
  // with a fabric, dpml with one leader without.
  EXPECT_EQ(t.level0(kAllreduce, 64, true).algo, "sharp-node-leader");
  const coll::CollSpec degraded = t.level0(kAllreduce, 64, false);
  EXPECT_EQ(degraded.algo, "dpml");
  EXPECT_EQ(degraded.leaders, 1);
  EXPECT_EQ(degraded.pipeline_k, 1);
  EXPECT_EQ(t.level0(kAllreduce, 1 << 20, false).leaders, 8);
  Machine m(net::cluster_b(), 2, 4, opt);  // no SHArP
  m.run([&](Rank& r) -> sim::CoTask<void> {
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = 16;  // small -> sharp entry -> must degrade gracefully
    a.inplace = true;
    co_await adapt::run_collective(kAllreduce, a, t, nullptr);
  });
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Multi-rail

TEST(MultiRail, HcaMappingFollowsSockets) {
  Machine m1(net::cluster_b(), 1, 28);  // 1 HCA
  EXPECT_EQ(m1.hca_of_local(0), 0);
  EXPECT_EQ(m1.hca_of_local(27), 0);
  EXPECT_EQ(m1.node(0).num_hcas(), 1);

  Machine m2(net::with_rails(net::cluster_b(), 2), 1, 28);
  EXPECT_EQ(m2.node(0).num_hcas(), 2);
  EXPECT_EQ(m2.hca_of_local(0), 0);    // socket 0 -> rail 0
  EXPECT_EQ(m2.hca_of_local(13), 0);
  EXPECT_EQ(m2.hca_of_local(14), 1);   // socket 1 -> rail 1
  EXPECT_EQ(m2.hca_of_local(27), 1);
}

TEST(MultiRail, DoublesAggregateBandwidthForManyPairs) {
  // Senders span both sockets, so a second rail doubles the node's
  // injection capacity for link-bound traffic.
  auto aggregate = [](const net::ClusterConfig& cfg) {
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(cfg, 2, 8, opt);
    m.run([&](Rank& r) -> sim::CoTask<void> {
      const std::size_t bytes = 256 * 1024;
      if (r.node_id() == 0) {
        for (int i = 0; i < 8; ++i) {
          co_await r.send(m.world(), 8 + r.local_rank(), i, bytes);
        }
      } else {
        for (int i = 0; i < 8; ++i) {
          co_await r.recv(m.world(), r.local_rank(), i, bytes);
        }
      }
    });
    return 1.0 / sim::to_seconds(m.now());
  };
  const double single = aggregate(net::cluster_b());
  const double dual = aggregate(net::with_rails(net::cluster_b(), 2));
  EXPECT_GT(dual / single, 1.5);
  EXPECT_LT(dual / single, 2.2);
}

TEST(MultiRail, SpeedsUpDpmlLargeAllreduce) {
  auto lat = [](const net::ClusterConfig& cfg) {
    core::CollSpec spec;
    spec.algo = "dpml";
    spec.leaders = 16;
    core::MeasureOptions opt;
    opt.iterations = 2;
    opt.warmup = 1;
    return core::measure_collective(core::CollKind::allreduce, cfg, 8, 28,
                                    1 << 20, spec, opt)
        .avg_us;
  };
  const double single = lat(net::cluster_b());
  const double dual = lat(net::with_rails(net::cluster_b(), 2));
  EXPECT_LT(dual, single);
}

TEST(MultiRail, CollectivesRemainCorrect) {
  core::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 4;
  core::MeasureOptions opt;
  opt.with_data = true;
  opt.iterations = 2;
  opt.warmup = 0;
  const auto r = core::measure_collective(
      core::CollKind::allreduce, net::with_rails(net::test_cluster(4), 2), 4,
      4, 4096, spec, opt);
  EXPECT_TRUE(r.verified);
}

// ---------------------------------------------------------------------------
// Model-constant fitting

TEST(Fit, RecoversConfiguredConstants) {
  auto cfg = net::cluster_b();
  const auto f = model::fit_from_simulation(cfg);
  // a: o_send + o_recv + path + per-message costs; must be ~1-3us.
  EXPECT_GT(f.a, 0.5e-6);
  EXPECT_LT(f.a, 4e-6);
  // b: bounded by the per-process injection bandwidth.
  const double b_cfg = 1.0 / (cfg.nic.proc_bw * 1e9);
  EXPECT_NEAR(f.b, b_cfg, b_cfg * 0.5);
  // b': per-process shared-memory copy bandwidth.
  const double b2_cfg = 1.0 / (cfg.host.copy_bw * 1e9);
  EXPECT_NEAR(f.b2, b2_cfg, b2_cfg * 0.5);
  // c: host reduction cost.
  EXPECT_NEAR(f.c, cfg.host.reduce_ns_per_byte * 1e-9,
              cfg.host.reduce_ns_per_byte * 1e-9 * 0.5);
  // a' << a (the paper's §5.3 premise).
  EXPECT_LT(f.a2, f.a);
}

TEST(Fit, FittedModelPredictsLeaderBenefit) {
  auto cfg = net::cluster_b();
  const auto m1 = model::fitted_params(cfg, 16, 28, 1, 512 * 1024);
  const auto m16 = model::fitted_params(cfg, 16, 28, 16, 512 * 1024);
  EXPECT_GT(model::t_dpml(m1) / model::t_dpml(m16), 3.0);
}

}  // namespace
}  // namespace dpml
