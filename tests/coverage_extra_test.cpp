// Odds-and-ends coverage: logging levels, engine edges, HCA mapping
// corner cases, window data accessors, utilization accounting, op labels.
#include <gtest/gtest.h>

#include <sstream>

#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "simmpi/machine.hpp"
#include "util/log.hpp"

namespace dpml {
namespace {

using simmpi::Machine;
using simmpi::Rank;

TEST(Log, LevelGating) {
  const auto prev = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  DPML_DEBUG("suppressed");  // must not crash; below threshold
  DPML_ERROR("emitted to stderr");
  util::set_log_level(prev);
}

TEST(EngineEdge, ScheduleDuringEventKeepsOrdering) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule_call(sim::us(1.0), [&] {
    order.push_back(1);
    // Same-time event scheduled from within an event runs after it.
    e.schedule_call(e.now(), [&] { order.push_back(2); });
  });
  e.schedule_call(sim::us(2.0), [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineEdge, EventsProcessedCounts) {
  sim::Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_call(sim::us(i), [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 5u);
}

TEST(LatchEdge, MultiArrive) {
  sim::Engine e;
  sim::Latch l(e, 5);
  l.arrive(3);
  EXPECT_EQ(l.pending(), 2);
  l.arrive(2);
  bool done = false;
  e.spawn([](sim::Latch& latch, bool& flag) -> sim::CoTask<void> {
    co_await latch.wait();
    flag = true;
  }(l, done));
  e.run();
  EXPECT_TRUE(done);
}

TEST(HcaMapping, MoreRailsThanSockets) {
  // 4 rails on a 2-socket node: locals round-robin across rails.
  auto cfg = net::with_rails(net::cluster_b(), 4);
  Machine m(cfg, 1, 8);
  EXPECT_EQ(m.node(0).num_hcas(), 4);
  EXPECT_EQ(m.hca_of_local(0), 0);
  EXPECT_EQ(m.hca_of_local(1), 1);
  EXPECT_EQ(m.hca_of_local(5), 1);
}

TEST(ClusterNames, RailSuffixAndTestAlias) {
  EXPECT_EQ(net::with_rails(net::cluster_b(), 2).name, "B+rail2");
  EXPECT_EQ(net::cluster_by_name("t").name, "test");
}

TEST(Window, DataAccessors) {
  simmpi::ShmWindow with(16, 1, true);
  EXPECT_TRUE(with.has_data());
  EXPECT_EQ(with.data().size(), 16u);
  EXPECT_EQ(with.owner_socket(), 1);
  const simmpi::ShmWindow& cref = with;
  EXPECT_EQ(cref.data().size(), 16u);
  simmpi::ShmWindow without(16, 0, false);
  EXPECT_FALSE(without.has_data());
  EXPECT_EQ(without.size(), 16u);
}

TEST(Utilization, BoundedAndSymmetric) {
  simmpi::RunOptions opt;
  opt.with_data = false;
  Machine m(net::cluster_b(), 2, 4, opt);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.node_id() == 0) {
      co_await r.send(m.world(), 4 + r.local_rank(), 0, 256 * 1024);
    } else {
      co_await r.recv(m.world(), r.local_rank(), 0, 256 * 1024);
    }
    co_return;
  });
  const double tx = m.avg_tx_utilization();
  const double rx = m.avg_rx_utilization();
  EXPECT_GT(tx, 0.0);
  EXPECT_LE(tx, 1.0);
  // One-directional traffic: per-node averages match (node0 TX == node1 RX).
  EXPECT_NEAR(tx, rx, 1e-9);
}

TEST(OpLabel, UserOpNamed) {
  simmpi::Op user{simmpi::UserOpFn(
      [](simmpi::Dtype, std::size_t, simmpi::MutBytes, simmpi::ConstBytes) {})};
  EXPECT_EQ(user.name(), "user");
  EXPECT_TRUE(user.is_user());
}

TEST(SpecLabel, EncodesConfiguration) {
  core::CollSpec s;
  s.algo = "dpml";
  s.leaders = 8;
  s.pipeline_k = 4;
  const auto allreduce = core::CollKind::allreduce;
  EXPECT_EQ(s.label(allreduce), "dpml(l=8,k=4)");
  s.pipeline_k = 1;
  EXPECT_EQ(s.label(allreduce), "dpml(l=8)");
  s.algo = "mvapich2";
  EXPECT_EQ(s.label(allreduce), "mvapich2");
  const auto& reg = coll::CollRegistry::instance();
  EXPECT_EQ(reg.at(allreduce, "sharp-socket-leader").name,
            "sharp-socket-leader");
  EXPECT_THROW(reg.at(allreduce, "nope"), util::InvariantError);
}

TEST(MeasureEdge, BestWorstBracketAverage) {
  core::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 2;
  core::MeasureOptions opt;
  opt.iterations = 5;
  const auto r = core::measure_collective(
      core::CollKind::allreduce, net::test_cluster(2), 2, 4, 8192, spec, opt);
  EXPECT_LE(r.best_us, r.avg_us);
  EXPECT_GE(r.worst_us, r.avg_us);
}

}  // namespace
}  // namespace dpml
