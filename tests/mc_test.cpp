// Schedule explorer (src/mc/): default-oracle bit-identity with the plain
// engine, the planted schedule-sensitive mutant and its replayable
// counterexample, exhaustive passes over correct algorithms, trace JSON
// round-trips, and the structured wait-cycle format shared with simcheck.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "coll/coll.hpp"
#include "coll/registry.hpp"
#include "core/api.hpp"
#include "mc/affine.hpp"
#include "mc/explore.hpp"
#include "mc/probes.hpp"
#include "mc/trace.hpp"
#include "net/cluster.hpp"
#include "sim/oracle.hpp"
#include "simmpi/machine.hpp"
#include "util/error.hpp"

namespace dpml {
namespace {

// ---------------------------------------------------------------------------
// Golden: an oracle that always answers "canonical" must be bit-identical
// to running with no oracle at all — same results, same simulated time.

class CanonicalOracle final : public sim::ScheduleOracle {
 public:
  std::size_t choose(sim::ChoiceKind,
                     const std::vector<sim::ChoiceAlt>& alts) override {
    EXPECT_GE(alts.size(), 2u);
    ++calls_;
    return 0;
  }
  void note_wildcard_recv(int, int) override {}
  bool race_matters(int, int) override { return true; }
  void note_pruned(std::uint64_t) override {}
  std::uint64_t calls() const { return calls_; }

 private:
  std::uint64_t calls_ = 0;
};

struct GoldenRun {
  sim::Time final_time = 0;
  std::vector<std::vector<std::byte>> results;
};

GoldenRun golden_allreduce(const std::string& algo,
                           sim::ScheduleOracle* oracle) {
  constexpr int kNodes = 2;
  constexpr int kPpn = 2;
  constexpr std::size_t kCount = 8;
  net::ClusterConfig cluster = net::cluster_by_name("test");
  if (cluster.total_nodes < kNodes) cluster = net::with_nodes(cluster, kNodes);
  simmpi::RunOptions ropt;
  ropt.with_data = true;
  ropt.check_level = check::CheckLevel::strict;
  ropt.oracle = oracle;
  simmpi::Machine m(cluster, kNodes, kPpn, ropt);
  const int world = m.world_size();

  GoldenRun g;
  std::vector<std::vector<std::byte>> sendb(static_cast<std::size_t>(world));
  g.results.resize(static_cast<std::size_t>(world));
  for (int w = 0; w < world; ++w) {
    sendb[static_cast<std::size_t>(w)] =
        mc::affine_operand(simmpi::Dtype::i32, kCount, w);
    g.results[static_cast<std::size_t>(w)].resize(
        kCount * simmpi::dtype_size(simmpi::Dtype::i32));
  }
  coll::CollSpec spec;
  spec.algo = algo;
  m.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
    const auto w = static_cast<std::size_t>(r.world_rank());
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = kCount;
    a.dt = simmpi::Dtype::i32;
    a.op = mc::affine_op();
    a.send = sendb[w];
    a.recv = g.results[w];
    co_await core::run_collective(coll::CollKind::allreduce, a, spec);
  });
  g.final_time = m.now();
  return g;
}

TEST(McGolden, CanonicalOracleIsBitIdentical) {
  const GoldenRun plain = golden_allreduce("rd", nullptr);
  CanonicalOracle oracle;
  const GoldenRun mc = golden_allreduce("rd", &oracle);
  EXPECT_EQ(plain.final_time, mc.final_time);
  ASSERT_EQ(plain.results.size(), mc.results.size());
  for (std::size_t w = 0; w < plain.results.size(); ++w) {
    EXPECT_EQ(plain.results[w], mc.results[w]) << "rank " << w;
  }
}

TEST(McGolden, OracleRequiresChecking) {
  net::ClusterConfig cluster = net::cluster_by_name("test");
  CanonicalOracle oracle;
  simmpi::RunOptions ropt;
  ropt.check_level = check::CheckLevel::off;
  ropt.oracle = &oracle;
  EXPECT_THROW(simmpi::Machine(cluster, 1, 2, ropt), util::InvariantError);
}

// ---------------------------------------------------------------------------
// The planted mutant: mc-probe-arrival folds in arrival order, which only a
// non-canonical schedule exposes.

mc::McConfig probe_config(const std::string& algo, int np) {
  mc::McConfig cfg;
  cfg.kind = coll::CollKind::allreduce;
  cfg.algo = algo;
  cfg.nodes = np;
  cfg.ppn = 1;
  cfg.count = 4;
  return cfg;
}

TEST(McExplore, CanonicalScheduleHidesThePlantedBug) {
  mc::ensure_probe_algorithms();
  // Single-schedule checking (the status quo before the explorer) passes:
  // the canonical arrival order is ascending comm rank.
  const mc::Trace base = mc::run_schedule(
      mc::Trace{probe_config("mc-probe-arrival", 3), {}, {}, "", "", ""});
  EXPECT_EQ(base.failure_type, "") << base.failure_report;
}

TEST(McExplore, PlantedArrivalBugFoundWithinBudget) {
  mc::ensure_probe_algorithms();
  mc::McBudget budget;
  budget.max_schedules = 256;
  const mc::McOutcome out =
      mc::explore(probe_config("mc-probe-arrival", 3), budget);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.stats.budget_exhausted);
  ASSERT_TRUE(out.counterexample.has_value());
  EXPECT_EQ(out.counterexample->failure_type, "check");
  EXPECT_FALSE(out.counterexample->failure_report.empty());
  // The counterexample is a genuine divergence from the canonical schedule.
  ASSERT_FALSE(out.counterexample->choices.empty());
  EXPECT_NE(out.counterexample->choices.back(), 0);
  // The probe's wildcard receives put rank 0's channel in the frozen set.
  EXPECT_FALSE(out.counterexample->wild.empty());
}

TEST(McExplore, CounterexampleReplaysToTheSameFailure) {
  mc::ensure_probe_algorithms();
  mc::McBudget budget;
  budget.max_schedules = 256;
  const mc::McOutcome out =
      mc::explore(probe_config("mc-probe-arrival", 3), budget);
  ASSERT_TRUE(out.counterexample.has_value());

  // Round-trip through the JSON wire format first: replay consumes traces
  // exactly as dpmlsim --mc-replay reads them off disk.
  const mc::Trace loaded = mc::parse_trace(mc::trace_json(*out.counterexample));
  const mc::Trace obs = mc::run_schedule(loaded);
  EXPECT_EQ(obs.failure_type, out.counterexample->failure_type);
  EXPECT_EQ(obs.choices, out.counterexample->choices);
  EXPECT_FALSE(obs.failure_report.empty());
}

TEST(McExplore, SortedTwinPassesExhaustively) {
  mc::ensure_probe_algorithms();
  mc::McBudget budget;
  budget.max_schedules = 512;
  const mc::McOutcome out =
      mc::explore(probe_config("mc-probe-sorted", 3), budget);
  EXPECT_TRUE(out.ok) << (out.counterexample.has_value()
                              ? out.counterexample->failure_report
                              : "");
  EXPECT_FALSE(out.stats.budget_exhausted);
  // The same races exist as in the arrival twin; they were all explored.
  EXPECT_GT(out.stats.schedules, 1u);
  EXPECT_GT(out.stats.choice_points, 0u);
}

TEST(McExplore, InTreeAllreduceExploresCleanAndPrunes) {
  mc::McConfig cfg;
  cfg.kind = coll::CollKind::allreduce;
  cfg.algo = "rd";
  cfg.nodes = 2;
  cfg.ppn = 2;
  cfg.count = 4;
  mc::McBudget budget;
  budget.max_schedules = 512;
  const mc::McOutcome out = mc::explore(cfg, budget);
  EXPECT_TRUE(out.ok) << (out.counterexample.has_value()
                              ? out.counterexample->failure_report
                              : "");
  // No wildcard receives -> same-instant delivery races are all equivalent;
  // the independence relation must prune them rather than branch.
  EXPECT_GT(out.stats.pruned, 0u);
  EXPECT_GT(out.stats.pruned_pct(), 0.0);
}

TEST(McExplore, ScheduleBudgetIsRespected) {
  mc::ensure_probe_algorithms();
  mc::McBudget budget;
  budget.max_schedules = 1;
  const mc::McOutcome out =
      mc::explore(probe_config("mc-probe-sorted", 3), budget);
  EXPECT_EQ(out.stats.schedules, 1u);
  EXPECT_TRUE(out.stats.budget_exhausted);
  EXPECT_TRUE(out.ok);  // nothing explored failed
}

// ---------------------------------------------------------------------------
// Trace wire format.

TEST(McTrace, JsonRoundTrips) {
  mc::Trace t;
  t.config.cluster = "test";
  t.config.nodes = 3;
  t.config.ppn = 2;
  t.config.kind = coll::CollKind::reduce_scatter;
  t.config.algo = "ring";
  t.config.count = 12;
  t.config.dt = simmpi::Dtype::i64;
  t.config.leaders = 3;
  t.config.root = 1;
  t.choices = {0, 2, 1};
  t.wild = {{0, 1}, {4, 2}};
  t.failure_type = "check";
  t.failure_report = "wrong \"result\"\nat rank 3";
  const mc::Trace r = mc::parse_trace(mc::trace_json(t));
  EXPECT_EQ(r.config.cluster, t.config.cluster);
  EXPECT_EQ(r.config.nodes, t.config.nodes);
  EXPECT_EQ(r.config.ppn, t.config.ppn);
  EXPECT_EQ(r.config.kind, t.config.kind);
  EXPECT_EQ(r.config.algo, t.config.algo);
  EXPECT_EQ(r.config.count, t.config.count);
  EXPECT_EQ(r.config.dt, t.config.dt);
  EXPECT_EQ(r.config.leaders, t.config.leaders);
  EXPECT_EQ(r.config.root, t.config.root);
  EXPECT_EQ(r.choices, t.choices);
  EXPECT_EQ(r.wild, t.wild);
  EXPECT_EQ(r.failure_type, t.failure_type);
  EXPECT_EQ(r.failure_report, t.failure_report);
}

TEST(McTrace, SaveAndLoadThroughAFile) {
  mc::Trace t;
  t.choices = {1};
  t.wild = {{0, 1}};
  const std::string path = ::testing::TempDir() + "mc_test_trace.json";
  mc::save_trace(t, path);
  const mc::Trace r = mc::load_trace(path);
  EXPECT_EQ(r.choices, t.choices);
  EXPECT_EQ(r.wild, t.wild);
  EXPECT_EQ(r.failure_type, "");
}

TEST(McTrace, ParseRejectsMalformedInput) {
  EXPECT_THROW(mc::parse_trace("not json"), util::InvariantError);
  EXPECT_THROW(mc::parse_trace("{}"), util::InvariantError);
  EXPECT_THROW(mc::parse_trace("{\"mc_trace\": 2}"), util::InvariantError);
}

// ---------------------------------------------------------------------------
// Structured wait-cycle reports (shared between simcheck deadlocks and mc
// counterexamples).

TEST(McDeadlockJson, ReportsEdgesAndTheCanonicalCycle) {
  std::vector<check::BlockedEdge> edges;
  edges.push_back({1, 0, 2, 7, 64});
  edges.push_back({2, 0, 1, 7, 64});
  const std::string j = check::deadlock_report_json(edges);
  EXPECT_NE(j.find("\"blocked\": ["), std::string::npos) << j;
  EXPECT_NE(j.find("{\"rank\": 1, \"ctx\": 0, \"src\": 2, \"tag\": 7, "
                   "\"capacity\": 64}"),
            std::string::npos)
      << j;
  EXPECT_NE(j.find("\"cycle\": [1, 2]"), std::string::npos) << j;
}

TEST(McDeadlockJson, WildcardSourcesAnchorNoCycle) {
  std::vector<check::BlockedEdge> edges;
  edges.push_back({0, 0, -1, 3, 16});  // could be satisfied by anyone
  edges.push_back({1, 0, 0, 3, 16});   // waits on 0, which waits on no one
  const std::string j = check::deadlock_report_json(edges);
  EXPECT_NE(j.find("\"cycle\": []"), std::string::npos) << j;
}

}  // namespace
}  // namespace dpml
