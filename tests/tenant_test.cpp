// Multi-tenant fabric subsystem (src/tenant, docs/MODEL.md §11):
// hand-computed max-min arbitration between two jobs' flows, per-group byte
// attribution, ECMP-way failure/recovery with deterministic rerouting of
// live flows, bit-identical tenant runs across reruns and --jobs widths,
// spec-string parsing, shape validation, and — the tenancy-off contract —
// golden single-job --fabric latencies that must not move when the tenant
// subsystem is compiled in.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/measure.hpp"
#include "fabric/fabric.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "tenant/tenant.hpp"
#include "util/error.hpp"

namespace dpml {
namespace {

using fabric::FlowFabric;

// ---------------------------------------------------------------------------
// Two competing jobs on one leaf link: max-min shares and byte attribution.

TEST(TenantFabricTest, TwoJobsSplitASharedEdgeLinkAndBytesAttribute) {
  sim::Engine eng;
  const auto cfg = net::test_cluster(4);  // one leaf, 12 GB/s edges
  FlowFabric ff(eng, cfg, 4);
  ff.enable_group_accounting(3);
  ff.set_node_group(0, 1);  // job A owns node 0
  ff.set_node_group(2, 2);  // job B owns node 2
  const std::uint64_t bytes = 1 << 20;
  double rate_a = 0.0;
  double rate_b = 0.0;
  eng.schedule_call(0, [&]() {
    // Both jobs target node 1: node1.down is the bottleneck, max-min splits
    // it 6/6 GB/s.
    const auto a = ff.start_flow(0, 1, bytes, cfg.nic.link_bw, nullptr);
    const auto b = ff.start_flow(2, 1, bytes, cfg.nic.link_bw, nullptr);
    rate_a = ff.flow_rate_gbps(a);
    rate_b = ff.flow_rate_gbps(b);
  });
  eng.run();
  EXPECT_NEAR(rate_a, 6.0, 1e-6);
  EXPECT_NEAR(rate_b, 6.0, 1e-6);
  // Full drain: every flow's bytes land on its links under its own group
  // (kAutoGroup resolves through set_node_group on the source).
  const int shared = ff.downlink(1);
  EXPECT_NEAR(ff.link_group_bytes(shared, 1), static_cast<double>(bytes),
              1e-3);
  EXPECT_NEAR(ff.link_group_bytes(shared, 2), static_cast<double>(bytes),
              1e-3);
  EXPECT_NEAR(ff.link_group_bytes(ff.uplink(0), 1),
              static_cast<double>(bytes), 1e-3);
  EXPECT_NEAR(ff.link_group_bytes(ff.uplink(0), 2), 0.0, 1e-9);
  EXPECT_NEAR(ff.link_group_bytes(ff.uplink(2), 2),
              static_cast<double>(bytes), 1e-3);
}

// ---------------------------------------------------------------------------
// Failure and recovery: way probing, live-flow rerouting, determinism.

TEST(TenantFabricTest, ChooseWayProbesPastDownWaysAndRecovers) {
  sim::Engine eng;
  const auto cfg = net::test_cluster(8);  // 2 leaves x 4 nodes, 4 ways
  FlowFabric ff(eng, cfg, 8);
  ASSERT_EQ(ff.topo().ecmp_ways, 4);
  const int w0 = ff.choose_way(0, 4);
  EXPECT_EQ(w0, FlowFabric::ecmp_way(0, 4, 4));  // all ways live: pure hash
  ff.set_way_down(FlowFabric::kAllLeaves, w0, true);
  EXPECT_TRUE(ff.way_down(0, w0));
  EXPECT_TRUE(ff.way_down(1, w0));
  // Linear probe from the hash: the next live way in cyclic order.
  EXPECT_EQ(ff.choose_way(0, 4), (w0 + 1) % 4);
  ff.set_way_down(FlowFabric::kAllLeaves, w0, false);
  EXPECT_FALSE(ff.way_down(0, w0));
  EXPECT_EQ(ff.choose_way(0, 4), w0);
}

TEST(TenantFabricTest, LiveFlowsRerouteOffAFailedWayDeterministically) {
  // Run the identical failure-at-instant scenario twice: a cross-leaf flow
  // loses its way mid-flight, reroutes, and must finish at the exact same
  // tick both times.
  auto run_once = [&]() {
    sim::Engine eng;
    const auto cfg = net::test_cluster(8);
    FlowFabric ff(eng, cfg, 8);
    sim::Time finish = 0;
    eng.schedule_call(0, [&]() {
      ff.start_flow(0, 4, 1 << 22, cfg.nic.link_bw,
                    [&](sim::Time t) { finish = t; });
    });
    const int w0 = ff.choose_way(0, 4);
    eng.schedule_call(sim::us(100), [&, w0]() {
      ff.set_way_down(FlowFabric::kAllLeaves, w0, true);
      EXPECT_EQ(ff.active_flows(), 1);  // still in flight, on a new way
    });
    eng.run();
    return finish;
  };
  const sim::Time first = run_once();
  const sim::Time second = run_once();
  EXPECT_GT(first, 0);
  EXPECT_EQ(first, second);
}

TEST(TenantFabricTest, NoLiveWayIsAnInvariantViolation) {
  sim::Engine eng;
  const auto cfg = net::test_cluster(8);
  FlowFabric ff(eng, cfg, 8);
  for (int w = 0; w < 4; ++w) {
    ff.set_way_down(FlowFabric::kAllLeaves, w, true);
  }
  EXPECT_THROW((void)ff.choose_way(0, 4), util::InvariantError);
}

// ---------------------------------------------------------------------------
// Whole tenant runs: determinism across reruns and executor widths.

void expect_same(const tenant::TenantResult& a, const tenant::TenantResult& b) {
  EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.max_link_util, b.max_link_util);
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_EQ(a.bg_flows, b.bg_flows);
  // The allocator counters are deterministic too.
  EXPECT_GT(a.fabric_perf.recomputes, 0u);
  EXPECT_TRUE(a.fabric_perf == b.fabric_perf);
  EXPECT_EQ(a.hot_link, b.hot_link);
  EXPECT_DOUBLE_EQ(a.hot_link_bg_share, b.hot_link_bg_share);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].start_us, b.jobs[i].start_us) << i;
    EXPECT_DOUBLE_EQ(a.jobs[i].makespan_us, b.jobs[i].makespan_us) << i;
    EXPECT_DOUBLE_EQ(a.jobs[i].goodput_gbps, b.jobs[i].goodput_gbps) << i;
    EXPECT_DOUBLE_EQ(a.jobs[i].solo_us, b.jobs[i].solo_us) << i;
    EXPECT_DOUBLE_EQ(a.jobs[i].slowdown, b.jobs[i].slowdown) << i;
    EXPECT_DOUBLE_EQ(a.jobs[i].stall_us, b.jobs[i].stall_us) << i;
    EXPECT_DOUBLE_EQ(a.jobs[i].link_share, b.jobs[i].link_share) << i;
  }
}

tenant::TenantOptions busy_options() {
  tenant::TenantOptions opt;
  opt.seed = 7;
  opt.traffic = tenant::TrafficSpec::parse("uniform:load=0.4,seed=3");
  opt.failures = tenant::FailSpec::default_spec();
  return opt;
}

TEST(TenantRunTest, FailureAndTrafficRunsAreBitIdenticalAcrossReruns) {
  const auto cfg = net::test_cluster(8);
  const auto jobs = tenant::default_jobs(3, cfg, 8);
  tenant::TenantOptions opt = busy_options();
  const tenant::TenantResult a = tenant::run_tenants(cfg, 2, jobs, opt);
  const tenant::TenantResult b = tenant::run_tenants(cfg, 2, jobs, opt);
  expect_same(a, b);
  EXPECT_GT(a.bg_flows, 0u);
  EXPECT_GT(a.makespan_us, 0.0);
}

TEST(TenantRunTest, ResultsAreBitIdenticalAcrossJobsWidths) {
  const auto cfg = net::test_cluster(8);
  const auto jobs = tenant::default_jobs(3, cfg, 8);
  tenant::TenantOptions opt = busy_options();
  opt.jobs = 1;
  const tenant::TenantResult serial = tenant::run_tenants(cfg, 2, jobs, opt);
  opt.jobs = 4;
  const tenant::TenantResult wide = tenant::run_tenants(cfg, 2, jobs, opt);
  expect_same(serial, wide);
}

TEST(TenantRunTest, SharedRunFoldsIntoAPerfReport) {
  const auto cfg = net::test_cluster(8);
  const auto jobs = tenant::default_jobs(3, cfg, 8);
  const tenant::TenantResult r =
      tenant::run_tenants(cfg, 2, jobs, busy_options());
  EXPECT_EQ(r.engine_perf.events, r.events);
  EXPECT_GT(r.elided_bytes, 0u);  // tenant machines are metadata-only
  core::PerfReport rep;
  rep.add(r.engine_perf, r.elided_bytes,
          core::FabricCounters{r.max_link_util, r.flows, r.bg_flows,
                               r.fabric_perf});
  EXPECT_EQ(rep.points, 1);
  EXPECT_EQ(rep.events, r.events);
  EXPECT_EQ(rep.resumes + rep.callbacks, r.events);
  EXPECT_EQ(rep.elided_bytes, r.elided_bytes);
  ASSERT_TRUE(rep.fabric.has_value());
  EXPECT_EQ(rep.fabric->flows, r.flows);
  EXPECT_EQ(rep.fabric->bg_flows, r.bg_flows);
  EXPECT_TRUE(rep.fabric->perf == r.fabric_perf);
  EXPECT_NE(rep.json("t").find("\"events\": " + std::to_string(r.events)),
            std::string::npos);
}

TEST(TenantRunTest, FoldPerfAddsTheSoloBaselines) {
  // One run_tenants call simulates the shared run and one solo baseline
  // per job; the perf point carries all of their events, so events/sec is
  // taken over the wall clock that timed them.
  const auto cfg = net::test_cluster(8);
  const auto jobs = tenant::default_jobs(3, cfg, 8);
  tenant::TenantOptions opt = busy_options();
  const tenant::TenantResult r = tenant::run_tenants(cfg, 2, jobs, opt);
  EXPECT_GT(r.baseline_perf.events, 0u);
  EXPECT_GT(r.baseline_elided_bytes, 0u);
  core::PerfReport rep;
  tenant::fold_perf(r, opt, rep);
  EXPECT_EQ(rep.points, 1);
  EXPECT_EQ(rep.events, r.events + r.baseline_perf.events);
  EXPECT_EQ(rep.elided_bytes, r.elided_bytes + r.baseline_elided_bytes);
  ASSERT_TRUE(rep.fabric.has_value());
  EXPECT_EQ(rep.fabric->flows, r.flows);  // the shared run's fabric only
  // Without baselines the point is the shared run alone.
  opt.solo_baseline = false;
  const tenant::TenantResult alone = tenant::run_tenants(cfg, 2, jobs, opt);
  EXPECT_EQ(alone.baseline_perf.events, 0u);
  core::PerfReport only;
  tenant::fold_perf(alone, opt, only);
  EXPECT_EQ(only.events, alone.events);
}

TEST(TenantRunTest, SingleQuietJobMatchesItsSoloBaselineExactly) {
  // One job, no background, no failures: the shared run IS the solo run
  // (the stagger shifts the whole timeline, not the makespan), so the
  // slowdown must be exactly 1.
  const auto cfg = net::test_cluster(8);
  tenant::JobSpec j;
  j.name = "only";
  j.kind = coll::CollKind::allreduce;
  j.algo = "ring";
  j.nodes = 4;
  j.bytes = 65536;
  j.iterations = 3;
  const tenant::TenantResult r = tenant::run_tenants(cfg, 2, {j}, {});
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_GT(r.jobs[0].solo_us, 0.0);
  EXPECT_DOUBLE_EQ(r.jobs[0].makespan_us, r.jobs[0].solo_us);
  EXPECT_DOUBLE_EQ(r.jobs[0].slowdown, 1.0);
}

// ---------------------------------------------------------------------------
// Spec parsing.

TEST(TenantSpecTest, TrafficSpecRoundTripsAndValidates) {
  const auto t =
      tenant::TrafficSpec::parse("uniform:load=0.3,bytes=64K,seed=9");
  EXPECT_EQ(t.matrix, tenant::Matrix::uniform);
  EXPECT_DOUBLE_EQ(t.load, 0.3);
  EXPECT_EQ(t.bytes, 65536u);
  EXPECT_EQ(t.seed, 9u);
  EXPECT_EQ(tenant::TrafficSpec::parse(t.to_string()).to_string(),
            t.to_string());
  const auto h = tenant::TrafficSpec::parse("hotspot:hot_frac=0.8,hot_node=2");
  EXPECT_EQ(h.matrix, tenant::Matrix::hotspot);
  EXPECT_DOUBLE_EQ(h.hot_frac, 0.8);
  EXPECT_EQ(h.hot_node, 2);
  const auto p = tenant::TrafficSpec::parse("permutation:shift=3");
  EXPECT_EQ(p.matrix, tenant::Matrix::permutation);
  EXPECT_EQ(p.shift, 3);
  EXPECT_TRUE(tenant::TrafficSpec::parse("").empty());
  EXPECT_THROW((void)tenant::TrafficSpec::parse("poisson"),
               util::InvariantError);
  EXPECT_THROW((void)tenant::TrafficSpec::parse("uniform:load=0"),
               util::InvariantError);
  EXPECT_THROW((void)tenant::TrafficSpec::parse("uniform:load=1.5"),
               util::InvariantError);
  EXPECT_THROW((void)tenant::TrafficSpec::parse("hotspot:hot_frac=2"),
               util::InvariantError);
}

TEST(TenantSpecTest, FailSpecRoundTripsAndValidates) {
  const auto f = tenant::FailSpec::parse(
      "way=0,at_us=30,recover_us=150;way=1,leaf=0,at_us=60");
  ASSERT_EQ(f.events.size(), 2u);
  EXPECT_EQ(f.events[0].way, 0);
  EXPECT_EQ(f.events[0].leaf, -1);
  EXPECT_DOUBLE_EQ(f.events[0].at_us, 30.0);
  EXPECT_DOUBLE_EQ(f.events[0].recover_us, 150.0);
  EXPECT_EQ(f.events[1].way, 1);
  EXPECT_EQ(f.events[1].leaf, 0);
  EXPECT_DOUBLE_EQ(f.events[1].recover_us, 0.0);  // never recovers
  EXPECT_EQ(tenant::FailSpec::parse(f.to_string()).to_string(),
            f.to_string());
  EXPECT_TRUE(tenant::FailSpec::parse("").empty());
  EXPECT_FALSE(tenant::FailSpec::default_spec().empty());
  EXPECT_THROW((void)tenant::FailSpec::parse("at_us=30"),  // way= required
               util::InvariantError);
  EXPECT_THROW((void)tenant::FailSpec::parse("way=0,at_us=50,recover_us=40"),
               util::InvariantError);
}

TEST(TenantSpecTest, NumbersFollowTheArgsRule) {
  // A number is its whole text, fits its field (an int, or a uint64 seed)
  // and is finite; the error names the flag and the field.
  struct Probe {
    const char* spec;
    bool fail;  // a --fail-links spec, else a --bg-traffic one
    const char* names;
  };
  const Probe probes[] = {
      {"way=4294967296,at_us=30", true, "--fail-links way"},
      {"way=0,leaf=1.5,at_us=30", true, "--fail-links leaf"},
      {"way=0,at_us=nan", true, "--fail-links at_us"},
      {"uniform:load=0.5x", false, "--bg-traffic load"},
      {"hotspot:hot_node=4294967296", false, "--bg-traffic hot_node"},
      {"permutation:shift=inf", false, "--bg-traffic shift"},
      {"uniform:seed=-3", false, "--bg-traffic seed"},
  };
  for (const Probe& p : probes) {
    try {
      if (p.fail) {
        (void)tenant::FailSpec::parse(p.spec);
      } else {
        (void)tenant::TrafficSpec::parse(p.spec);
      }
      ADD_FAILURE() << p.spec << " was accepted";
    } catch (const util::InvariantError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(p.names), std::string::npos) << msg;
      EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    }
  }
}

// ---------------------------------------------------------------------------
// Shape validation.

TEST(TenantValidateTest, RejectsBadMixes) {
  const auto cfg = net::test_cluster(8);
  tenant::JobSpec j;
  j.nodes = 4;
  // World-only hierarchical algorithms cannot run on a tenant slice.
  tenant::JobSpec world = j;
  world.algo = "dpml";
  EXPECT_THROW((void)tenant::run_tenants(cfg, 2, {world}, {}),
               util::InvariantError);
  // Node budget.
  tenant::JobSpec big = j;
  big.nodes = 16;
  EXPECT_THROW((void)tenant::run_tenants(cfg, 2, {big}, {}),
               util::InvariantError);
  // Background traffic needs the flow fabric.
  tenant::TenantOptions no_fabric;
  no_fabric.fabric = fabric::FabricLevel::none;
  no_fabric.traffic = tenant::TrafficSpec::parse("uniform");
  j.algo = "ring";
  EXPECT_THROW((void)tenant::run_tenants(cfg, 2, {j}, no_fabric),
               util::InvariantError);
  // Overloaded hotspot background (open-loop demand at the hot node above
  // its edge capacity) would never terminate.
  tenant::TenantOptions hot;
  hot.traffic = tenant::TrafficSpec::parse("hotspot:load=0.3,hot_frac=0.8");
  tenant::JobSpec wide = j;
  wide.algo = "ring";
  wide.nodes = 8;
  EXPECT_THROW((void)tenant::run_tenants(cfg, 2, {wide}, hot),
               util::InvariantError);
  // SHArP jobs need a SHArP-capable cluster config.
  auto no_sharp = cfg;
  no_sharp.sharp.reset();
  tenant::JobSpec sj = j;
  sj.algo = "ring";
  sj.sharp = true;
  sj.bytes = 1024;
  EXPECT_THROW((void)tenant::run_tenants(no_sharp, 2, {sj}, {}),
               util::InvariantError);
}

TEST(TenantValidateTest, HotspotDemandExactlyAtCapacityIsAccepted) {
  // Regression: the rejection boundary used `< 1.0`, so an open-loop hot
  // demand of exactly 1.0 — load * hot_frac * (nodes - 1) at capacity,
  // marginally stable — was rejected with a misleading ">= 1" message.
  // 5 nodes, load 0.5, hot_frac 0.5: demand = 0.5 * 0.5 * 4 = 1.0 exactly.
  const auto cfg = net::test_cluster(8);
  tenant::JobSpec j;
  j.name = "boundary";
  j.kind = coll::CollKind::allreduce;
  j.algo = "ring";
  j.nodes = 5;
  j.bytes = 16384;
  j.iterations = 2;
  tenant::TenantOptions at_capacity;
  at_capacity.solo_baseline = false;
  at_capacity.traffic =
      tenant::TrafficSpec::parse("hotspot:load=0.5,hot_frac=0.5");
  const auto r = tenant::run_tenants(cfg, 1, {j}, at_capacity);
  EXPECT_GT(r.makespan_us, 0.0);
  EXPECT_GT(r.bg_flows, 0u);
  // Just past the boundary still throws.
  tenant::TenantOptions over;
  over.solo_baseline = false;
  over.traffic = tenant::TrafficSpec::parse("hotspot:load=0.51,hot_frac=0.5");
  EXPECT_THROW((void)tenant::run_tenants(cfg, 1, {j}, over),
               util::InvariantError);
}

TEST(TenantValidateTest, FailureScheduleMustKeepEveryLeafPairRoutable) {
  // Regression: a schedule that downs every ECMP way of a leaf used to pass
  // validation and abort mid-run inside FlowFabric::choose_way. It is now
  // replayed in time order up front and rejected with the clause named.
  const auto cfg = net::test_cluster(8);  // 2 leaves x 4 ways
  const auto jobs = tenant::default_jobs(2, cfg, 8);
  auto run = [&](const std::string& spec) {
    tenant::TenantOptions opt;
    opt.solo_baseline = false;
    opt.failures = tenant::FailSpec::parse(spec);
    return tenant::run_tenants(cfg, 2, jobs, opt);
  };
  const std::string all_down =
      "way=0,leaf=0,at_us=10;way=1,leaf=0,at_us=20;way=2,at_us=30;"
      "way=3,leaf=0,at_us=40";
  try {
    (void)run(all_down);
    ADD_FAILURE() << "schedule downing every way of leaf 0 was accepted";
  } catch (const util::InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'way=3,leaf=0,at_us=40'"), std::string::npos) << what;
    EXPECT_NE(what.find("leaf 0 with every ECMP way down"), std::string::npos)
        << what;
  }
  // Two leaves left with disjoint live ways cannot route between them.
  EXPECT_THROW((void)run("way=0,at_us=10;way=1,leaf=0,at_us=20;"
                         "way=2,leaf=0,at_us=20;way=3,leaf=1,at_us=30"),
               util::InvariantError);
  // Same instant, failure listed before the recovery that would have saved
  // it: the engine applies them in that order, so the transient counts.
  EXPECT_THROW((void)run("way=3,leaf=0,at_us=40;"
                         "way=0,leaf=0,at_us=10,recover_us=40;"
                         "way=1,leaf=0,at_us=10;way=2,leaf=0,at_us=10"),
               util::InvariantError);
  // Replayed in time order, a recovery that lands first keeps the schedule
  // legal even though the clauses are listed out of order, and the run
  // completes through every outage.
  const auto r = run("way=3,leaf=0,at_us=40;way=0,leaf=0,at_us=10,"
                     "recover_us=35;way=1,leaf=0,at_us=20;way=2,leaf=0,"
                     "at_us=30,recover_us=80");
  EXPECT_GT(r.makespan_us, 40.0);
}

TEST(TenantValidateTest, DefaultJobsFitTheClusterAndPassValidation) {
  for (int count : {1, 2, 4}) {
    const auto cfg = net::test_cluster(8);
    const auto jobs = tenant::default_jobs(count, cfg, 8);
    ASSERT_EQ(jobs.size(), static_cast<std::size_t>(count));
    int total = 0;
    for (const auto& j : jobs) total += j.nodes;
    EXPECT_LE(total, 8);
    tenant::TenantOptions opt;
    opt.solo_baseline = false;  // shape check only; keep it cheap
    const auto r = tenant::run_tenants(cfg, 1, jobs, opt);
    EXPECT_EQ(r.jobs.size(), jobs.size());
    EXPECT_GT(r.makespan_us, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Tenancy-off contract: the single-job --fabric path is bit-identical to the
// pre-tenant tree. Golden values captured with measure_collective before the
// tenant subsystem (and the fabric's group/failure extensions) landed.

struct Golden {
  const char* cluster;
  int nodes;
  int ppn;
  const char* kind;
  const char* algo;
  std::size_t bytes;
  double avg_us;
};

TEST(TenantGoldenTest, SingleJobFabricLatenciesAreUnchanged) {
  const Golden goldens[] = {
      {"test", 4, 2, "allreduce", "ring", 16384ul, 24.027334},
      {"test", 8, 2, "allreduce", "dpml", 65536ul, 91.269467},
      {"test", 8, 2, "alltoall", "auto", 4096ul, 68.924557},
      {"D", 8, 4, "allreduce", "dpml", 262144ul, 556.009774},
      {"D", 8, 4, "allgather", "ring", 16384ul, 276.144000},
      {"B", 8, 4, "allreduce", "rsa", 65536ul, 85.310941},
  };
  for (const Golden& g : goldens) {
    core::MeasureOptions opt;
    opt.iterations = 3;
    opt.warmup = 1;
    opt.fabric = fabric::FabricLevel::links;
    coll::CollSpec spec;
    spec.algo = g.algo;
    spec.leaders = 4;
    const auto r = core::measure_collective(
        coll::coll_kind_by_name(g.kind), net::cluster_by_name(g.cluster),
        g.nodes, g.ppn, g.bytes, spec, opt);
    EXPECT_NEAR(r.avg_us, g.avg_us, 1e-4)
        << g.cluster << " " << g.kind << "/" << g.algo;
  }
}

}  // namespace
}  // namespace dpml
