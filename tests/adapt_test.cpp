// Congestion-aware adaptive re-planning (src/adapt, docs/MODEL.md §12):
// signal quantization fixtures, the contention-keyed table grammar
// (parse/serialize round-trips, level-0 per-size tables, level fallback,
// record persistence), the Replanner state machine, and the tenant-layer
// integration contracts — the golden no-op lock (adaptive on a quiet fabric
// is bit-identical to static selection), the congestion flip (a hot link
// re-plans the job onto more ring channels and actually helps), failure-
// triggered re-planning, bit-identical adaptive runs across reruns and
// --jobs widths, and the placement-policy axis (round-robin/random name
// round-trips, seeded determinism, and the jobs-actually-share-links
// witness on preset D).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "adapt/adapt.hpp"
#include "net/cluster.hpp"
#include "tenant/tenant.hpp"
#include "util/error.hpp"

namespace dpml {
namespace {

// ---------------------------------------------------------------------------
// Signal quantization: hand-computed fixtures.

TEST(AdaptClassifyTest, ThresholdsQuantizeTheStrongerSignal) {
  EXPECT_EQ(adapt::classify({0.0, 0.0, false}), 0);
  EXPECT_EQ(adapt::classify({0.049, 0.0, false}), 0);
  EXPECT_EQ(adapt::classify({0.05, 0.0, false}), 1);
  EXPECT_EQ(adapt::classify({0.0, 0.24, false}), 1);
  EXPECT_EQ(adapt::classify({0.25, 0.0, false}), 2);
  EXPECT_EQ(adapt::classify({0.1, 0.54, false}), 2);
  EXPECT_EQ(adapt::classify({0.55, 0.0, false}), 3);
  EXPECT_EQ(adapt::classify({1.0, 1.0, false}), 3);
}

TEST(AdaptClassifyTest, FailureBumpsTheLevelAndSaturates) {
  EXPECT_EQ(adapt::classify({0.0, 0.0, true}), 1);
  EXPECT_EQ(adapt::classify({0.3, 0.0, true}), 3);
  EXPECT_EQ(adapt::classify({0.9, 0.0, true}), 3);  // cap at kLevels - 1
}

// ---------------------------------------------------------------------------
// The contention-keyed table grammar.

TEST(AdaptTableTest, ParsesLevelsAndFallsBackLevelByLevel) {
  const adapt::AdaptiveTable t = adapt::AdaptiveTable::parse(
      "# comment\n"
      "<=1024 rd\n"
      "* ring\n"
      "@c2 * cring 4\n");
  const auto* small = t.select(coll::CollKind::allreduce, 512, 0);
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(small->spec.algo, "rd");
  // Level 1 has no entries: falls back to level 0.
  const auto* fell = t.select(coll::CollKind::allreduce, 1 << 20, 1);
  ASSERT_NE(fell, nullptr);
  EXPECT_EQ(fell->spec.algo, "ring");
  // Level 2 is populated; level 3 falls back onto it.
  for (int level : {2, 3}) {
    const auto* hot = t.select(coll::CollKind::allreduce, 1 << 20, level);
    ASSERT_NE(hot, nullptr) << level;
    EXPECT_EQ(hot->spec.algo, "cring") << level;
    EXPECT_EQ(hot->spec.leaders, 4) << level;
  }
  // A kind with no entries at any level selects nothing.
  EXPECT_EQ(t.select(coll::CollKind::alltoall, 1024, 3), nullptr);
}

TEST(AdaptTableTest, SerializeRoundTripsAndLevelZeroStaysLegacy) {
  const adapt::AdaptiveTable t = adapt::AdaptiveTable::parse(
      "allreduce <=65536 rsa\n"
      "allreduce * ring\n"
      "allreduce @c3 * cring 8\n"
      "bcast * binomial\n");
  const std::string text = t.serialize();
  EXPECT_NE(text.find("@c3"), std::string::npos);
  const adapt::AdaptiveTable back = adapt::AdaptiveTable::parse(text);
  ASSERT_EQ(back.entries().size(), t.entries().size());
  for (std::size_t i = 0; i < t.entries().size(); ++i) {
    EXPECT_EQ(back.entries()[i].level, t.entries()[i].level) << i;
    EXPECT_EQ(back.entries()[i].max_bytes, t.entries()[i].max_bytes) << i;
    EXPECT_EQ(back.entries()[i].spec.algo, t.entries()[i].spec.algo) << i;
  }
  // A level-0-only table serializes as a plain per-size table (no @c
  // qualifiers), which parses back to the same level-0 choice.
  const adapt::AdaptiveTable flat =
      adapt::AdaptiveTable::parse("<=1024 rd\n* ring\n");
  const std::string legacy = flat.serialize();
  EXPECT_EQ(legacy.find("@c"), std::string::npos);
  const adapt::AdaptiveTable st = adapt::AdaptiveTable::parse(legacy);
  EXPECT_EQ(st.level0(coll::CollKind::allreduce, 4096).algo, "ring");
}

TEST(AdaptTableTest, MigratesLegacySelectionTables) {
  // Every plain per-size selection table is a valid adaptive table...
  const adapt::AdaptiveTable direct =
      adapt::AdaptiveTable::parse("<=16384 rd\n* ring\n");
  EXPECT_EQ(direct.entries().size(), 2u);
  for (const auto& e : direct.entries()) EXPECT_EQ(e.level, 0);
  // ...including the tuner's output, which parses back as the same level-0
  // entries.
  core::MeasureOptions opt;
  opt.iterations = 1;
  opt.warmup = 0;
  const adapt::AdaptiveTable tuned = adapt::AdaptiveTable::tune(
      coll::CollKind::allreduce, net::test_cluster(2), 2, 2, {1024, 65536},
      opt);
  const std::string text = tuned.serialize();
  EXPECT_EQ(text.find("@c"), std::string::npos) << text;
  const adapt::AdaptiveTable back = adapt::AdaptiveTable::parse(text);
  ASSERT_EQ(back.entries().size(), tuned.entries().size()) << text;
  for (std::size_t i = 0; i < back.entries().size(); ++i) {
    const auto& got = back.entries()[i];
    const auto& want = tuned.entries()[i];
    EXPECT_EQ(got.level, 0) << i;
    EXPECT_EQ(got.kind, coll::CollKind::allreduce) << i;
    EXPECT_EQ(got.max_bytes, want.max_bytes) << i;
    EXPECT_EQ(got.spec.algo, want.spec.algo) << i;
    EXPECT_EQ(got.spec.leaders, want.spec.leaders) << i;
    EXPECT_EQ(got.spec.pipeline_k, want.spec.pipeline_k) << i;
  }
  EXPECT_EQ(back.entries().back().max_bytes,
            std::numeric_limits<std::size_t>::max());  // catch-all
}

TEST(AdaptTableTest, ValidatesShapeAndAlgorithms) {
  using adapt::AdaptiveTable;
  // Unregistered algorithm.
  EXPECT_THROW((void)AdaptiveTable::parse("* nosuch\n"), util::InvariantError);
  // Level out of range.
  EXPECT_THROW((void)AdaptiveTable::parse("@c9 * ring\n"),
               util::InvariantError);
  // Missing catch-all for a populated (kind, level).
  EXPECT_THROW((void)AdaptiveTable::parse("@c1 <=1024 ring\n"),
               util::InvariantError);
  // Thresholds must ascend within a (kind, level).
  EXPECT_THROW(
      (void)AdaptiveTable::parse("<=4096 rd\n<=1024 ring\n* ring\n"),
      util::InvariantError);
}

TEST(AdaptTableTest, NumbersFollowTheArgsRule) {
  // A number is its whole text and fits its field (an int, or a uint64
  // size bound), and nothing follows the pipeline depth; the error names
  // the table line and the field.
  struct Probe {
    const char* text;
    const char* names;
  };
  const Probe probes[] = {
      {"<=12x rd\n* rd\n", "adaptive table line 1 size bound"},
      {"<=-5 rd\n* rd\n", "adaptive table line 1 size bound"},
      {"<=abc rd\n* rd\n", "adaptive table line 1 size bound"},
      {"* dpml 4294967297\n", "adaptive table line 1 leaders"},
      {"* dpml 2 1.5\n", "adaptive table line 1 pipeline depth"},
      {"# header\n* dpml 2 3 junk\n", "adaptive table line 2: unexpected"},
      {"@c99999999999 * rd\n", "adaptive table line 1 contention level"},
  };
  for (const Probe& p : probes) {
    try {
      (void)adapt::AdaptiveTable::parse(p.text);
      ADD_FAILURE() << p.text << " was accepted";
    } catch (const util::InvariantError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(p.names), std::string::npos) << msg;
      EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    }
  }
}

TEST(AdaptTableTest, LineErrorsNameTheLineAndNoSourcePath) {
  // Leaders and pipeline depths below 1 fail at parse time, and a line
  // missing its size bound or algorithm names the line, not a source file.
  struct Probe {
    const char* text;
    const char* names;
  };
  const Probe probes[] = {
      {"* dpml 2 0\n", "adaptive table line 1 pipeline depth"},
      {"* dpml -3\n", "adaptive table line 1 leaders"},
      {"* dpml 0 2\n", "adaptive table line 1 leaders"},
      {"*\n", "adaptive table line 1: missing algorithm"},
      {"# header\nallreduce\n", "adaptive table line 2: missing size bound"},
      {"bcast @c1\n", "adaptive table line 1: missing size bound"},
      {"100 rd\n", "adaptive table line 1: size bound '100'"},
  };
  for (const Probe& p : probes) {
    try {
      (void)adapt::AdaptiveTable::parse(p.text);
      ADD_FAILURE() << p.text << " was accepted";
    } catch (const util::InvariantError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(p.names), std::string::npos) << msg;
      EXPECT_EQ(msg.find("check failed"), std::string::npos) << msg;
      EXPECT_EQ(msg.find(".cpp"), std::string::npos) << msg;
      EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    }
  }
}

TEST(AdaptTableTest, RecordReplacesTheCatchAllAndIsStable) {
  adapt::AdaptiveTable t = adapt::AdaptiveTable::defaults();
  coll::CollSpec spec;
  spec.algo = "ring";
  spec.leaders = 1;
  // Level 0 has no default entry: record appends one (the migration of the
  // job's static plan into the table).
  t.record(coll::CollKind::allreduce, 0, spec);
  const auto* e0 = t.select(coll::CollKind::allreduce, 1 << 20, 0);
  ASSERT_NE(e0, nullptr);
  EXPECT_EQ(e0->spec.algo, "ring");
  // Recording what the table already selects is a no-op.
  const std::string before = t.serialize();
  t.record(coll::CollKind::allreduce, 0, spec);
  EXPECT_EQ(t.serialize(), before);
  // Recording a different plan replaces the catch-all in place.
  spec.algo = "cring";
  spec.leaders = 16;
  t.record(coll::CollKind::allreduce, 2, spec);
  const auto* e2 = t.select(coll::CollKind::allreduce, 1 << 20, 2);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(e2->spec.leaders, 16);
  // The round-tripped table preserves the recorded entries.
  const adapt::AdaptiveTable back = adapt::AdaptiveTable::parse(t.serialize());
  EXPECT_EQ(back.select(coll::CollKind::allreduce, 1 << 20, 2)->spec.leaders,
            16);
}

// ---------------------------------------------------------------------------
// The Replanner state machine: hand-computed plan trajectory.

TEST(AdaptReplanTest, PlanFollowsTheLevelAndCountsChanges) {
  const adapt::AdaptiveTable t = adapt::AdaptiveTable::defaults();
  adapt::Replanner rp(&t, coll::CollKind::allreduce, {"ring", 1}, 262144);
  EXPECT_EQ(rp.plan().algo, "ring");
  // Quiet window: level 0, no default entry, static plan stays.
  EXPECT_EQ(rp.replan({0.0, 0.0, false}).algo, "ring");
  EXPECT_EQ(rp.replans(), 0);
  // Moderate contention: level 2 -> cring 4.
  const adapt::Plan& hot = rp.replan({0.3, 0.0, false});
  EXPECT_EQ(hot.algo, "cring");
  EXPECT_EQ(hot.leaders, 4);
  EXPECT_EQ(rp.level(), 2);
  EXPECT_EQ(rp.replans(), 1);
  // Same level again: no re-selection, no churn.
  EXPECT_EQ(rp.replan({0.35, 0.0, false}).leaders, 4);
  EXPECT_EQ(rp.replans(), 1);
  // Back to quiet: the static plan returns.
  EXPECT_EQ(rp.replan({0.0, 0.0, false}).algo, "ring");
  EXPECT_EQ(rp.replans(), 2);
  EXPECT_EQ(rp.max_level(), 2);
  // Persistence feed saw levels 0 and 2 only.
  EXPECT_TRUE(rp.observed(0));
  EXPECT_FALSE(rp.observed(1));
  EXPECT_TRUE(rp.observed(2));
  EXPECT_EQ(rp.observed_plan(2).leaders, 4);
  EXPECT_EQ(rp.observed_plan(0).algo, "ring");
}

TEST(AdaptReplanTest, StaleMarkForcesReselectionAtTheSameLevel) {
  const adapt::AdaptiveTable t = adapt::AdaptiveTable::defaults();
  adapt::Replanner rp(&t, coll::CollKind::allreduce, {"ring", 1}, 262144);
  // A failure event mid-run: the degraded signal classifies level 1 and the
  // stale mark guarantees re-selection even though the level was already 1.
  (void)rp.replan({0.1, 0.0, false});
  EXPECT_EQ(rp.level(), 1);
  rp.mark_stale();
  const adapt::Plan& p = rp.replan({0.1, 0.0, true});
  EXPECT_EQ(p.algo, "cring");
  EXPECT_EQ(rp.level(), 2);  // degraded bump
}

// ---------------------------------------------------------------------------
// Tenant integration.

void expect_same_run(const tenant::TenantResult& a,
                     const tenant::TenantResult& b) {
  EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_EQ(a.bg_flows, b.bg_flows);
  EXPECT_EQ(a.shared_links, b.shared_links);
  EXPECT_EQ(a.adapt_table, b.adapt_table);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].makespan_us, b.jobs[i].makespan_us) << i;
    EXPECT_DOUBLE_EQ(a.jobs[i].stall_us, b.jobs[i].stall_us) << i;
    EXPECT_EQ(a.jobs[i].final_algo, b.jobs[i].final_algo) << i;
    EXPECT_EQ(a.jobs[i].final_leaders, b.jobs[i].final_leaders) << i;
    EXPECT_EQ(a.jobs[i].replans, b.jobs[i].replans) << i;
    EXPECT_EQ(a.jobs[i].max_level, b.jobs[i].max_level) << i;
  }
}

// The golden no-op lock: on a quiet fabric (no background traffic, no
// failures, block placement so the default mix shares no links) every
// window classifies level 0, the default table has no level-0 entries, and
// the adaptive run is bit-identical to static selection. The makespan is
// additionally locked to a constant so silent drift in either path shows.
TEST(AdaptGoldenTest, QuietFabricAdaptiveIsBitIdenticalToStatic) {
  const auto cfg = net::cluster_by_name("D");
  const auto jobs = tenant::default_jobs(2, cfg, 8);
  tenant::TenantOptions opt;
  opt.seed = 1;
  const tenant::TenantResult st = tenant::run_tenants(cfg, 2, jobs, opt);
  opt.adapt = true;
  const tenant::TenantResult ad = tenant::run_tenants(cfg, 2, jobs, opt);
  EXPECT_DOUBLE_EQ(st.makespan_us, ad.makespan_us);
  EXPECT_EQ(st.events, ad.events);
  EXPECT_EQ(st.flows, ad.flows);
  ASSERT_EQ(st.jobs.size(), ad.jobs.size());
  for (std::size_t i = 0; i < st.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(st.jobs[i].makespan_us, ad.jobs[i].makespan_us) << i;
    EXPECT_EQ(ad.jobs[i].replans, 0) << i;
    EXPECT_EQ(ad.jobs[i].max_level, 0) << i;
    EXPECT_EQ(ad.jobs[i].final_algo, jobs[i].algo) << i;
  }
  // Golden lock (captured at introduction of src/adapt).
  EXPECT_NEAR(ad.makespan_us, 2035.023329, 1e-4);
}

// The congestion flip: heavy background traffic pushes the job's observed
// signals past the thresholds, the plan flips to multi-channel cring, and
// the adaptive run finishes strictly faster than the static one.
TEST(AdaptReplanTest, HotLinkFlipsThePlanToMoreChannelsAndWins) {
  const auto cfg = net::test_cluster(8);
  const auto jobs = tenant::default_jobs(1, cfg, 8);
  tenant::TenantOptions opt;
  opt.seed = 1;
  opt.traffic = tenant::TrafficSpec::parse("uniform:load=0.6");
  const tenant::TenantResult st = tenant::run_tenants(cfg, 2, jobs, opt);
  opt.adapt = true;
  const tenant::TenantResult ad = tenant::run_tenants(cfg, 2, jobs, opt);
  ASSERT_EQ(ad.jobs.size(), 1u);
  EXPECT_EQ(ad.jobs[0].final_algo, "cring");
  EXPECT_GT(ad.jobs[0].final_leaders, 1);
  EXPECT_GE(ad.jobs[0].replans, 1);
  EXPECT_GE(ad.jobs[0].max_level, 1);
  EXPECT_LT(ad.jobs[0].makespan_us, st.jobs[0].makespan_us);
  // The run's observations persist into the returned table: the static plan
  // at level 0 plus the congested plan at the observed level.
  const adapt::AdaptiveTable learned =
      adapt::AdaptiveTable::parse(ad.adapt_table);
  const auto* quiet = learned.select(coll::CollKind::allreduce, 262144, 0);
  ASSERT_NE(quiet, nullptr);
  EXPECT_EQ(quiet->spec.algo, "ring");
  const auto* hot = learned.select(coll::CollKind::allreduce, 262144,
                                   ad.jobs[0].max_level);
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->spec.algo, "cring");
}

// Failure-triggered re-planning: no background traffic at all — the way
// failure alone marks plans stale and the degraded fabric re-plans.
TEST(AdaptReplanTest, WayFailureAloneTriggersReplanning) {
  const auto cfg = net::test_cluster(8);
  const auto jobs = tenant::default_jobs(1, cfg, 8);
  tenant::TenantOptions opt;
  opt.seed = 1;
  opt.failures = tenant::FailSpec::parse("way=0,at_us=100");
  opt.adapt = true;
  const tenant::TenantResult r = tenant::run_tenants(cfg, 2, jobs, opt);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_GE(r.jobs[0].replans, 1);
  EXPECT_GE(r.jobs[0].max_level, 1);
  EXPECT_EQ(r.jobs[0].final_algo, "cring");
}

TEST(AdaptReplanTest, AdaptiveRunsAreBitIdenticalAcrossRerunsAndJobsWidths) {
  const auto cfg = net::test_cluster(8);
  const auto jobs = tenant::default_jobs(3, cfg, 8);
  tenant::TenantOptions opt;
  opt.seed = 7;
  opt.adapt = true;
  opt.placement = tenant::Placement::round_robin;
  opt.traffic = tenant::TrafficSpec::parse("uniform:load=0.4,seed=3");
  opt.failures = tenant::FailSpec::default_spec();
  opt.jobs = 1;
  const tenant::TenantResult a = tenant::run_tenants(cfg, 2, jobs, opt);
  const tenant::TenantResult b = tenant::run_tenants(cfg, 2, jobs, opt);
  expect_same_run(a, b);
  opt.jobs = 4;
  const tenant::TenantResult wide = tenant::run_tenants(cfg, 2, jobs, opt);
  expect_same_run(a, wide);
  EXPECT_FALSE(a.adapt_table.empty());
}

// ---------------------------------------------------------------------------
// Placement policies.

TEST(AdaptPlacementTest, NamesRoundTrip) {
  for (tenant::Placement p :
       {tenant::Placement::block, tenant::Placement::round_robin,
        tenant::Placement::random}) {
    EXPECT_EQ(tenant::placement_by_name(tenant::placement_name(p)), p);
  }
  EXPECT_EQ(tenant::placement_by_name("rr"), tenant::Placement::round_robin);
  EXPECT_THROW((void)tenant::placement_by_name("spiral"),
               util::InvariantError);
}

TEST(AdaptPlacementTest, RandomPlacementIsSeededAndDeterministic) {
  const auto cfg = net::test_cluster(8);
  const auto jobs = tenant::default_jobs(3, cfg, 8);
  tenant::TenantOptions opt;
  opt.seed = 11;
  opt.placement = tenant::Placement::random;
  const tenant::TenantResult a = tenant::run_tenants(cfg, 2, jobs, opt);
  const tenant::TenantResult b = tenant::run_tenants(cfg, 2, jobs, opt);
  expect_same_run(a, b);
  // A different seed is a different (valid) run; per-job invariants hold.
  opt.seed = 12;
  const tenant::TenantResult c = tenant::run_tenants(cfg, 2, jobs, opt);
  ASSERT_EQ(c.jobs.size(), jobs.size());
  for (const tenant::JobStats& j : c.jobs) {
    EXPECT_GT(j.makespan_us, 0.0);
    EXPECT_GT(j.solo_us, 0.0);
  }
}

// The placement witness on the paper's preset D (2-node leaves): block
// placement keeps the default 3-job mix's flows on mostly-disjoint links,
// while round-robin interleaving forces the jobs to share edge links.
TEST(AdaptPlacementTest, RoundRobinSharesLinksOnPresetD) {
  const auto cfg = net::cluster_by_name("D");
  const auto jobs = tenant::default_jobs(3, cfg, 8);
  tenant::TenantOptions opt;
  opt.seed = 1;
  opt.placement = tenant::Placement::round_robin;
  const tenant::TenantResult rr = tenant::run_tenants(cfg, 2, jobs, opt);
  EXPECT_GE(rr.shared_links, 1);
  opt.placement = tenant::Placement::block;
  const tenant::TenantResult blk = tenant::run_tenants(cfg, 2, jobs, opt);
  EXPECT_GT(rr.shared_links, blk.shared_links);
  opt.placement = tenant::Placement::random;
  const tenant::TenantResult rnd = tenant::run_tenants(cfg, 2, jobs, opt);
  EXPECT_GE(rnd.shared_links, 1);
}

// ---------------------------------------------------------------------------
// Validation.

TEST(AdaptValidateTest, AdaptRequiresTheLinkFabric) {
  const auto cfg = net::test_cluster(8);
  const auto jobs = tenant::default_jobs(2, cfg, 8);
  tenant::TenantOptions opt;
  opt.adapt = true;
  opt.fabric = fabric::FabricLevel::none;
  EXPECT_THROW((void)tenant::run_tenants(cfg, 2, jobs, opt),
               util::InvariantError);
}

TEST(AdaptValidateTest, RejectsTablesWithUnusableEntries) {
  const auto cfg = net::test_cluster(8);
  const auto jobs = tenant::default_jobs(1, cfg, 8);
  tenant::TenantOptions opt;
  opt.adapt = true;
  // dpml is world-only: a tenant slice cannot run it, so a table that would
  // select it under contention is rejected up front, not at iteration 3.
  opt.table = adapt::AdaptiveTable::parse("@c1 * dpml 4\n");
  EXPECT_THROW((void)tenant::run_tenants(cfg, 2, jobs, opt),
               util::InvariantError);
}

}  // namespace
}  // namespace dpml
