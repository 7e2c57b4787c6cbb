// Section-5 cost model: equation identities and agreement with the
// simulator in the regimes the model covers.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/measure.hpp"
#include "model/fit.hpp"
#include "model/model.hpp"
#include "net/cluster.hpp"

namespace dpml::model {
namespace {

Params typical() {
  // Cluster-B-like constants.
  Params m;
  m.p = 28 * 16;
  m.h = 16;
  m.l = 4;
  m.n = 64 * 1024;
  m.a = 2e-6;
  m.b = 1.0 / 2.5e9;
  m.a2 = 150e-9;
  m.b2 = 1.0 / 5e9;
  m.c = 0.2e-9;
  return m;
}

TEST(Model, CeilLg) {
  EXPECT_EQ(ceil_lg(1), 0);
  EXPECT_EQ(ceil_lg(2), 1);
  EXPECT_EQ(ceil_lg(3), 2);
  EXPECT_EQ(ceil_lg(4), 2);
  EXPECT_EQ(ceil_lg(5), 3);
  EXPECT_EQ(ceil_lg(1024), 10);
  EXPECT_THROW(ceil_lg(0), util::InvariantError);
}

TEST(Model, Equation1MatchesClosedForm) {
  Params m = typical();
  const double expect = 9.0 * (m.a + m.n * m.b + m.n * m.c);  // lg(448)=9
  EXPECT_DOUBLE_EQ(t_recursive_doubling(m), expect);
}

TEST(Model, Equation2And6AreSymmetric) {
  Params m = typical();
  EXPECT_DOUBLE_EQ(t_copy(m), t_bcast(m));
  EXPECT_DOUBLE_EQ(t_copy(m), m.l * (m.a2 + m.b2 * m.n / m.l));
}

TEST(Model, Equation3ComputeSharesAcrossLeaders) {
  Params m = typical();
  const double l1 = [&] {
    Params q = m;
    q.l = 1;
    return t_comp(q);
  }();
  const double l4 = t_comp(m);
  // (ppn/l - 1) n c: 27nc vs 6nc.
  EXPECT_DOUBLE_EQ(l1, 27.0 * m.n * m.c);
  EXPECT_DOUBLE_EQ(l4, 6.0 * m.n * m.c);
}

TEST(Model, Equation5AddsOnlyStartupOverhead) {
  Params m = typical();
  m.k = 4;
  const double base = t_comm(m);
  const double piped = t_comm_pipelined(m);
  EXPECT_DOUBLE_EQ(piped - base, ceil_lg(m.h) * m.a * (m.k - 1));
}

TEST(Model, Equation7IsSumOfPhases) {
  Params m = typical();
  EXPECT_DOUBLE_EQ(t_dpml(m),
                   t_copy(m) + t_comp(m) + t_comm(m) + t_bcast(m));
  m.k = 3;
  EXPECT_DOUBLE_EQ(t_dpml(m), t_copy(m) + t_comp(m) + t_comm_pipelined(m) +
                                  t_bcast(m));
}

TEST(Model, SingleNodeHasNoCommPhase) {
  Params m = typical();
  m.h = 1;
  m.p = 28;
  EXPECT_DOUBLE_EQ(t_comm(m), 0.0);
  EXPECT_DOUBLE_EQ(t_comm_pipelined(m), 0.0);
}

TEST(Model, PredictsLeaderBenefitForLargeMessages) {
  // §5.3: increasing leaders reduces latency for large n.
  auto cfg = net::cluster_b();
  const std::size_t bytes = 512 * 1024;
  const double l1 = t_dpml(from_cluster(cfg, 16, 28, 1, bytes));
  const double l16 = t_dpml(from_cluster(cfg, 16, 28, 16, bytes));
  EXPECT_GT(l1 / l16, 3.0);
}

TEST(Model, PredictsNoLeaderBenefitForTinyMessages) {
  auto cfg = net::cluster_b();
  const double l1 = t_dpml(from_cluster(cfg, 16, 28, 1, 16));
  const double l16 = t_dpml(from_cluster(cfg, 16, 28, 16, 16));
  EXPECT_LE(l1, l16);
}

TEST(Model, FewerStepsThanFlatRecursiveDoubling) {
  // §5.3: communication steps drop from lg p to lg h.
  auto cfg = net::cluster_b();
  const auto m = from_cluster(cfg, 64, 28, 16, 256 * 1024);
  EXPECT_LT(t_dpml(m), t_recursive_doubling(m));
}

// Model vs simulator: the model ignores contention (NIC sharing among
// leaders, the node memory pipe in phase 2), so the simulator reads higher
// as the leader count grows. Require agreement within a factor of 2 in the
// light-contention regimes and 2.5 at 16 leaders.
TEST(Model, AgreesWithSimulatorWithinSmallFactor) {
  auto cfg = net::cluster_b();
  for (int l : {1, 4, 16}) {
    for (std::size_t bytes : {64ul * 1024, 512ul * 1024}) {
      const double predicted = t_dpml(from_cluster(cfg, 16, 28, l, bytes));
      core::CollSpec s;
      s.algo = "dpml";
      s.leaders = l;
      s.inter = coll::InterAlgo::recursive_doubling;  // Eq (4) assumes rd
      core::MeasureOptions opt;
      opt.iterations = 3;
      opt.warmup = 1;
      const double simulated =
          core::measure_collective(core::CollKind::allreduce, cfg, 16, 28,
                                   bytes, s, opt)
              .avg_us *
          1e-6;
      const double factor = l >= 16 ? 2.5 : 2.0;
      EXPECT_LT(simulated, predicted * factor)
          << "l=" << l << " bytes=" << bytes;
      EXPECT_GT(simulated, predicted * 0.5)
          << "l=" << l << " bytes=" << bytes;
    }
  }
}

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The fitted constants are pinned to the bit: every probe runs on
// apps::run_program, and a change there must not move them.
TEST(ModelFit, FittedConstantsAreLockedIn) {
  const FittedParams f = fit_from_simulation(net::cluster_b());
  EXPECT_EQ(f.a, 1.0300000000000001e-06) << "a measured " << g17(f.a);
  EXPECT_EQ(f.b, 4.0166893005371092e-10) << "b measured " << g17(f.b);
  EXPECT_EQ(f.a2, 3.502e-07) << "a2 measured " << g17(f.a2);
  EXPECT_EQ(f.b2, 2.0016689300537109e-10) << "b2 measured " << g17(f.b2);
  EXPECT_EQ(f.c, 2.0000000000000001e-10) << "c measured " << g17(f.c);
}

// On stock D the injection pipe (proc_bw) is the bottleneck of every
// cross-leaf stream, so the thinner core costs nothing (docs/MODEL.md §7);
// with proc_bw raised to link_bw the core's share shows.
TEST(ModelFit, OversubFactorIsLockedIn) {
  net::ClusterConfig d = net::cluster_d();
  EXPECT_EQ(fit_oversub_factor(d), 1.0);
  d.nic.proc_bw = d.nic.link_bw;
  const double os = fit_oversub_factor(d);
  EXPECT_EQ(os, 1.2423475957206995) << "measured " << g17(os);
}

}  // namespace
}  // namespace dpml::model
