// Determinism lock for the parallel sweep executor (docs/MODEL.md §8).
//
// Part 1 exercises the Executor itself: every index runs exactly once into
// its own slot, nested sweeps degrade to serial, and failures are
// serial-equivalent (the lowest-index error propagates; jobs above the first
// failure are cancelled).
//
// Part 2 locks the measurement contract: for every registered algorithm of
// every collective kind — including perturbed multi-repetition runs, strict
// simcheck, and the flow-level fabric — MeasureResult is byte-identical for
// any jobs count, because each repetition's seed is derived explicitly
// (perturb.seed + rep) and committed into its own slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "coll/registry.hpp"
#include "core/executor.hpp"
#include "core/measure.hpp"
#include "fabric/fabric.hpp"
#include "net/cluster.hpp"
#include "perturb/spec.hpp"
#include "util/error.hpp"

namespace dpml {
namespace {

using coll::CollKind;
using coll::CollRegistry;
using coll::CollSpec;
using core::Executor;

// ---------------------------------------------------------------------------
// Executor unit tests.

TEST(Executor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 257;  // not a multiple of the worker count
  std::vector<std::atomic<int>> calls(kN);
  Executor(4).run(kN, [&](std::size_t i) { ++calls[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(calls[i].load(), 1) << i;
}

TEST(Executor, MapCommitsIntoSlotOrder) {
  const std::vector<std::size_t> out = Executor(4).map<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Executor, JobsResolutionAndClamping) {
  core::set_default_jobs(3);
  EXPECT_EQ(core::default_jobs(), 3);
  EXPECT_EQ(Executor(0).jobs(), 3);   // 0 = the process default
  EXPECT_EQ(Executor(-7).jobs(), 1);  // below 1 clamps
  core::set_default_jobs(-2);
  EXPECT_EQ(core::default_jobs(), 1);
  core::set_default_jobs(1);
}

TEST(Executor, JobsFlagIsAnIntegerOfAtLeastOne) {
  EXPECT_EQ(core::parse_jobs("4"), 4);
  EXPECT_EQ(core::parse_jobs("+1"), 1);
  for (const char* bad : {"4x", "x", "", "1.5", "0", "-2", "4294967298"}) {
    try {
      core::parse_jobs(bad);
      ADD_FAILURE() << "accepted --jobs '" << bad << "'";
    } catch (const util::InvariantError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(std::string("bad value '") + bad + "' for --jobs",
                           0),
                0u)
          << what;
    }
  }
}

TEST(Executor, EmptyAndSingletonRuns) {
  int calls = 0;
  Executor(8).run(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  Executor(8).run(1, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 0u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Executor, SerialErrorStopsAtFailingIndex) {
  std::atomic<int> executed{0};
  try {
    Executor(1).run(64, [&](std::size_t i) {
      ++executed;
      if (i == 3) throw std::runtime_error("boom 3");
    });
    FAIL() << "expected the job error to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
  // The serial path is an ordinary loop: indexes 0..3 ran, nothing after.
  EXPECT_EQ(executed.load(), 4);
}

TEST(Executor, ParallelErrorIsLowestFailingIndex) {
  // Indexes are claimed monotonically, so index 5 always starts (and records
  // its error) even when 9 and 17 also fail on other workers.
  std::vector<std::atomic<int>> calls(32);
  try {
    Executor(4).run(32, [&](std::size_t i) {
      ++calls[i];
      if (i == 5 || i == 9 || i == 17)
        throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected the job error to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 5");
  }
  // Serial-equivalence floor: everything below the first failure ran.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(calls[i].load(), 1) << i;
}

TEST(Executor, ParallelErrorCancelsTailJobs) {
  // Each surviving job takes ~1ms, so by the time a handful have finished
  // the index-2 failure is recorded and the remaining claims must bail out.
  constexpr std::size_t kN = 512;
  std::atomic<int> executed{0};
  EXPECT_THROW(Executor(4).run(kN,
                               [&](std::size_t i) {
                                 if (i == 2) throw std::runtime_error("stop");
                                 ++executed;
                                 std::this_thread::sleep_for(
                                     std::chrono::milliseconds(1));
                               }),
               std::runtime_error);
  EXPECT_LT(static_cast<std::size_t>(executed.load()), kN);
}

TEST(Executor, NestedExecutorRunsSerialOnWorkerThread) {
  EXPECT_FALSE(core::in_executor_worker());
  std::atomic<int> inner_total{0};
  Executor(2).run(2, [&](std::size_t) {
    EXPECT_TRUE(core::in_executor_worker());
    const std::thread::id outer = std::this_thread::get_id();
    // The nested sweep must run inline on this worker: same thread for
    // every inner index, no second fan-out.
    Executor(4).run(8, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), outer);
      ++inner_total;
    });
  });
  EXPECT_EQ(inner_total.load(), 16);
  EXPECT_FALSE(core::in_executor_worker());
}

TEST(Executor, LeaderClampWarningIsRaceFree) {
  // 16 leaders on ppn=4 clamp on every dispatch, and the 8 repetitions run
  // on 4 worker threads at once, so every thread reaches the leader-clamp
  // warning's shared dedup set (ThreadSanitizer builds check the locking).
  CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 16;
  core::MeasureOptions opt;
  opt.repetitions = 8;
  opt.jobs = 4;
  const net::ClusterConfig cfg = net::test_cluster(4);
  const auto clamped = core::measure_collective(CollKind::allreduce, cfg, 4, 4,
                                                64 * 1024, spec, opt);
  spec.leaders = 4;
  const auto at_ppn = core::measure_collective(CollKind::allreduce, cfg, 4, 4,
                                               64 * 1024, spec, opt);
  EXPECT_EQ(clamped.perf.jobs, 4);
  EXPECT_EQ(clamped.avg_us, at_ppn.avg_us);
  EXPECT_EQ(clamped.events, at_ppn.events);
}

// ---------------------------------------------------------------------------
// Seed-derivation contract: repetition r of a measure() call runs with
// perturbation seed perturb.seed + r, independent of every other repetition.

core::MeasureOptions perturbed_opts(std::uint64_t seed, int reps) {
  core::MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  opt.repetitions = reps;
  opt.perturb = perturb::PerturbSpec::parse("skew=uniform:max_us=25;seed=" +
                                            std::to_string(seed));
  return opt;
}

TEST(ExecutorSeeds, RepetitionSeedIsBasePlusRepIndex) {
  const net::ClusterConfig cfg = net::cluster_by_name("test");
  core::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 2;
  const auto allreduce = CollKind::allreduce;
  const auto both = core::measure_collective(allreduce, cfg, 3, 4, 1024, spec,
                                             perturbed_opts(7, 2));
  const auto rep0 = core::measure_collective(allreduce, cfg, 3, 4, 1024, spec,
                                             perturbed_opts(7, 1));
  const auto rep1 = core::measure_collective(allreduce, cfg, 3, 4, 1024, spec,
                                             perturbed_opts(8, 1));
  // The two-repetition sweep is exactly the union of the two single runs
  // with explicitly shifted seeds: integer tallies add, extrema combine.
  EXPECT_EQ(both.events, rep0.events + rep1.events);
  EXPECT_EQ(both.imbalance_ops, rep0.imbalance_ops + rep1.imbalance_ops);
  EXPECT_EQ(both.best_us, std::min(rep0.best_us, rep1.best_us));
  EXPECT_EQ(both.worst_us, std::max(rep0.worst_us, rep1.worst_us));
  // And the noise realizations genuinely differ between the derived seeds.
  EXPECT_NE(rep0.avg_us, rep1.avg_us);
}

// ---------------------------------------------------------------------------
// Registry-wide byte-identity matrix: jobs=1 vs jobs=N.

// Every deterministic MeasureResult field. The wall-clock-derived perf
// fields (wall_ms, events_per_sec, wall_ms_per_sim_ms) and the resolved
// jobs count are the only legitimate differences between runs.
void expect_identical(const core::MeasureResult& a,
                      const core::MeasureResult& b, const std::string& what) {
  EXPECT_EQ(a.avg_us, b.avg_us) << what;
  EXPECT_EQ(a.best_us, b.best_us) << what;
  EXPECT_EQ(a.worst_us, b.worst_us) << what;
  EXPECT_EQ(a.median_us, b.median_us) << what;
  EXPECT_EQ(a.p99_us, b.p99_us) << what;
  EXPECT_EQ(a.verified, b.verified) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.imbalance_ops, b.imbalance_ops) << what;
  EXPECT_EQ(a.entry_skew_avg_us, b.entry_skew_avg_us) << what;
  EXPECT_EQ(a.exit_skew_avg_us, b.exit_skew_avg_us) << what;
  EXPECT_EQ(a.wait_avg_us, b.wait_avg_us) << what;
  EXPECT_EQ(a.fabric_links, b.fabric_links) << what;
  EXPECT_EQ(a.oversubscription, b.oversubscription) << what;
  EXPECT_EQ(a.max_link_util, b.max_link_util) << what;
  EXPECT_TRUE(a.fabric_perf == b.fabric_perf) << what;
  EXPECT_EQ(a.perf.events, b.perf.events) << what;
  EXPECT_EQ(a.perf.resumes, b.perf.resumes) << what;
  EXPECT_EQ(a.perf.callbacks, b.perf.callbacks) << what;
  EXPECT_EQ(a.perf.resumes + a.perf.callbacks, a.perf.events) << what;
  EXPECT_EQ(a.perf.instants, b.perf.instants) << what;
  EXPECT_EQ(a.perf.peak_instants, b.perf.peak_instants) << what;
  EXPECT_EQ(a.perf.peak_queue_depth, b.perf.peak_queue_depth) << what;
  EXPECT_EQ(a.perf.callback_pool_hit_rate, b.perf.callback_pool_hit_rate)
      << what;
  EXPECT_EQ(a.perf.payload_pool_hit_rate, b.perf.payload_pool_hit_rate)
      << what;
  EXPECT_TRUE(a.perf.match == b.perf.match) << what;
  EXPECT_TRUE(a.perf.check == b.perf.check) << what;
  EXPECT_EQ(a.perf.sim_ms, b.perf.sim_ms) << what;
}

core::MeasureResult measure_with_jobs(CollKind kind,
                                      const net::ClusterConfig& cfg,
                                      const CollSpec& spec,
                                      core::MeasureOptions opt, int jobs) {
  opt.jobs = jobs;
  return core::measure_collective(kind, cfg, 3, 4, 768, spec, opt);
}

TEST(ExecutorMatrix, EveryAlgorithmByteIdenticalAcrossJobCounts) {
  const net::ClusterConfig cfg = net::cluster_by_name("test");
  constexpr int kWorld = 3 * 4;
  core::MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  opt.repetitions = 3;  // perturbed reps: the actual parallel axis
  opt.with_data = true;
  opt.check = check::CheckLevel::strict;
  opt.perturb = perturb::PerturbSpec::parse("skew=uniform:max_us=10;seed=5");
  for (CollKind kind : coll::kAllCollKinds) {
    for (const coll::CollDescriptor* d : CollRegistry::instance().list(kind)) {
      if (kWorld < d->caps.min_comm_size) continue;
      if (d->caps.needs_fabric && !cfg.has_sharp()) continue;
      CollSpec spec;
      spec.algo = d->name;
      spec.leaders = 2;
      const std::string what =
          std::string(coll::coll_kind_name(kind)) + "/" + d->name;
      const auto serial = measure_with_jobs(kind, cfg, spec, opt, 1);
      EXPECT_TRUE(serial.verified) << what;
      EXPECT_EQ(serial.perf.jobs, 1) << what;
      ASSERT_TRUE(serial.perf.check.has_value()) << what;
      if (kind != CollKind::barrier) {
        EXPECT_GT(serial.perf.check->verify.snapshot_bytes, 0u) << what;
      }
      const auto wide = measure_with_jobs(kind, cfg, spec, opt, 4);
      EXPECT_EQ(wide.perf.jobs, 4) << what;
      expect_identical(serial, wide, what + " jobs=4");
      // An odd width exercises uneven work distribution too.
      expect_identical(serial, measure_with_jobs(kind, cfg, spec, opt, 3),
                       what + " jobs=3");
    }
  }
}

TEST(ExecutorMatrix, NewPatternDpmlVariantsByteIdenticalAcrossJobCounts) {
  // The multi-leader reduce_scatter/allgather variants with a leader count
  // that does not divide ppn (ragged partitions), plus the pure-arrival
  // barrier, all stay byte-identical across executor widths.
  const net::ClusterConfig cfg = net::cluster_by_name("test");
  core::MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  opt.repetitions = 3;
  opt.with_data = true;
  opt.check = check::CheckLevel::strict;
  opt.perturb = perturb::PerturbSpec::parse("skew=uniform:max_us=10;seed=9");
  for (CollKind kind : {CollKind::reduce_scatter, CollKind::allgather}) {
    CollSpec spec;
    spec.algo = "dpml";
    spec.leaders = 3;  // does not divide ppn=4
    const std::string what =
        std::string(coll::coll_kind_name(kind)) + "/dpml l=3";
    const auto serial = measure_with_jobs(kind, cfg, spec, opt, 1);
    EXPECT_TRUE(serial.verified) << what;
    expect_identical(serial, measure_with_jobs(kind, cfg, spec, opt, 4),
                     what + " jobs=4");
  }
  CollSpec bspec;
  bspec.algo = "dissemination";
  const auto serial = measure_with_jobs(CollKind::barrier, cfg, bspec, opt, 1);
  EXPECT_TRUE(serial.verified) << "barrier/dissemination";
  expect_identical(serial,
                   measure_with_jobs(CollKind::barrier, cfg, bspec, opt, 4),
                   "barrier/dissemination jobs=4");
}

TEST(ExecutorMatrix, FabricModeByteIdenticalAcrossJobCounts) {
  // The flow-level fabric adds max-min fair link sharing on top of the
  // engine; its utilization telemetry must also be jobs-invariant.
  const net::ClusterConfig cfg = net::cluster_by_name("test");
  core::MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  opt.repetitions = 4;
  opt.fabric = fabric::FabricLevel::links;
  opt.perturb = perturb::PerturbSpec::parse("skew=uniform:max_us=15;seed=21");
  CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 2;
  const auto serial =
      measure_with_jobs(CollKind::allreduce, cfg, spec, opt, 1);
  EXPECT_TRUE(serial.fabric_links);
  EXPECT_GT(serial.max_link_util, 0.0);
  expect_identical(serial,
                   measure_with_jobs(CollKind::allreduce, cfg, spec, opt, 4),
                   "allreduce/dpml fabric=links jobs=4");
}

TEST(ExecutorMatrix, JobsBeyondRepetitionsStillIdentical) {
  const net::ClusterConfig cfg = net::cluster_by_name("test");
  CollSpec spec;
  spec.algo = "rd";
  const auto serial = measure_with_jobs(CollKind::allreduce, cfg, spec,
                                        perturbed_opts(3, 2), 1);
  // More workers than repetitions: the executor clamps to the job count.
  expect_identical(serial,
                   measure_with_jobs(CollKind::allreduce, cfg, spec,
                                     perturbed_opts(3, 2), 16),
                   "allreduce/rd jobs=16 reps=2");
}

// ---------------------------------------------------------------------------
// PerfReport: the one fold, [perf] line and --perf-json snapshot.

core::MeasureResult perf_point(CollKind kind, int nodes, std::size_t bytes,
                               fabric::FabricLevel level) {
  core::MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  opt.fabric = level;
  CollSpec spec;
  spec.algo = kind == CollKind::allreduce ? "dpml" : "auto";
  spec.leaders = 2;
  return core::measure_collective(kind, net::cluster_by_name("test"), nodes,
                                  4, bytes, spec, opt);
}

TEST(PerfReport, FoldSumsCountersAndTakesThePeakMaxima) {
  const auto a = perf_point(CollKind::allreduce, 4, 65536,
                            fabric::FabricLevel::none);
  const auto b = perf_point(CollKind::bcast, 2, 1024,
                            fabric::FabricLevel::none);
  ASSERT_GT(a.perf.elided_bytes, 0u);  // metadata-only points elide payload
  core::PerfReport rep;
  rep.add(a);
  rep.add(b);
  EXPECT_EQ(rep.points, 2);
  EXPECT_EQ(rep.events, a.perf.events + b.perf.events);
  EXPECT_EQ(rep.resumes, a.perf.resumes + b.perf.resumes);
  EXPECT_EQ(rep.callbacks, a.perf.callbacks + b.perf.callbacks);
  EXPECT_EQ(rep.instants, a.perf.instants + b.perf.instants);
  EXPECT_EQ(rep.elided_bytes, a.perf.elided_bytes + b.perf.elided_bytes);
  EXPECT_EQ(rep.peak_instants,
            std::max(a.perf.peak_instants, b.perf.peak_instants));
  EXPECT_EQ(rep.peak_queue_depth,
            std::max(a.perf.peak_queue_depth, b.perf.peak_queue_depth));
  EXPECT_EQ(rep.callback_pool_hits,
            a.perf.callback_pool_hit_rate + b.perf.callback_pool_hit_rate);
  EXPECT_EQ(rep.frame_pool_hit_count,
            a.perf.frame_pool.hits + b.perf.frame_pool.hits);
  ASSERT_GT(a.perf.match.delivered_matches, 0u);
  EXPECT_EQ(rep.match.posted_matches,
            a.perf.match.posted_matches + b.perf.match.posted_matches);
  EXPECT_EQ(rep.match.delivered_matches,
            a.perf.match.delivered_matches + b.perf.match.delivered_matches);
  EXPECT_EQ(rep.match.scanned, a.perf.match.scanned + b.perf.match.scanned);
  EXPECT_EQ(rep.match.peak_posted,
            std::max(a.perf.match.peak_posted, b.perf.match.peak_posted));
  EXPECT_EQ(rep.match.peak_unexpected, std::max(a.perf.match.peak_unexpected,
                                                b.perf.match.peak_unexpected));
  EXPECT_FALSE(rep.fabric.has_value());
  // Folding per-point reports in order gives the same totals.
  core::PerfReport pa, pb, folded;
  pa.add(a);
  pb.add(b);
  folded.add(pa);
  folded.add(pb);
  EXPECT_EQ(folded.points, rep.points);
  EXPECT_EQ(folded.events, rep.events);
  EXPECT_EQ(folded.instants, rep.instants);
  EXPECT_EQ(folded.peak_queue_depth, rep.peak_queue_depth);
  EXPECT_EQ(folded.elided_bytes, rep.elided_bytes);
  EXPECT_EQ(folded.callback_pool_hits, rep.callback_pool_hits);
  EXPECT_EQ(folded.payload_pool_hits, rep.payload_pool_hits);
  EXPECT_TRUE(folded.match == rep.match);
  const std::string json = rep.json("t");
  EXPECT_NE(json.find("\"events\": " + std::to_string(rep.events) + ",\n"),
            std::string::npos);
  EXPECT_NE(json.find("\"frame_pool_hits\": " +
                      std::to_string(rep.frame_pool_hit_count) + ",\n"),
            std::string::npos);
  EXPECT_NE(json.find("\"match_scanned\": " +
                      std::to_string(rep.match.scanned) + ",\n"),
            std::string::npos);
  EXPECT_EQ(rep.line().rfind("[perf] 2 points, jobs=", 0), 0u);
  EXPECT_NE(rep.line().find(", matcher: " +
                            std::to_string(rep.match.posted_matches) +
                            " matched at post, "),
            std::string::npos);
}

TEST(PerfReport, FabricBlockAppearsOnlyAfterALinkFabricPoint) {
  core::PerfReport rep;
  rep.add(perf_point(CollKind::allreduce, 4, 65536,
                     fabric::FabricLevel::none));
  EXPECT_FALSE(rep.fabric.has_value());
  EXPECT_EQ(rep.json("t").find("fabric"), std::string::npos);
  EXPECT_EQ(rep.line().find("fabric allocator"), std::string::npos);

  const auto f1 = perf_point(CollKind::allreduce, 4, 65536,
                             fabric::FabricLevel::links);
  const auto f2 = perf_point(CollKind::allreduce, 3, 16384,
                             fabric::FabricLevel::links);
  ASSERT_GT(f1.fabric_perf.recomputes, 0u);
  rep.add(f1);
  ASSERT_TRUE(rep.fabric.has_value());
  EXPECT_TRUE(rep.fabric->perf == f1.fabric_perf);
  rep.add(f2);
  fabric::FabricPerf sum = f1.fabric_perf;
  sum.merge(f2.fabric_perf);
  EXPECT_TRUE(rep.fabric->perf == sum);
  EXPECT_EQ(rep.fabric->flows, f1.fabric_flows + f2.fabric_flows);
  EXPECT_EQ(rep.fabric->max_link_util,
            std::max(f1.max_link_util, f2.max_link_util));
  EXPECT_EQ(rep.fabric->bg_flows, 0u);
  const std::string json = rep.json("t");
  EXPECT_NE(json.find("\"fabric\": true,\n"), std::string::npos);
  EXPECT_NE(json.find("\"fabric_recomputes\": " +
                      std::to_string(sum.recomputes) + ",\n"),
            std::string::npos);
  EXPECT_NE(json.find("\"fabric_stale_wakes\": " +
                      std::to_string(sum.stale_wakes) + ",\n"),
            std::string::npos);
  EXPECT_NE(rep.line().find("; fabric allocator: " +
                            std::to_string(sum.recomputes) + " recomputes"),
            std::string::npos);
}

// The verification counters of one checked data point, pinned: alltoall
// pairwise on A 4x8 with 17,408-byte blocks, 2 iterations. Each rank's send
// and recv hold 32 blocks (557,056 bytes), and the checker snapshots both
// per invocation.
TEST(PerfReport, CheckCountersPinOneCheckedDataPoint) {
  core::MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 0;
  opt.with_data = true;
  opt.check = check::CheckLevel::strict;
  CollSpec spec;
  spec.algo = "pairwise";
  const auto run = [&] {
    return core::measure_collective(CollKind::alltoall, net::cluster_a(), 4,
                                    8, 17408, spec, opt);
  };
  const auto r = run();
  ASSERT_TRUE(r.verified);
  ASSERT_TRUE(r.perf.check.has_value());
  const check::VerifyStats& v = r.perf.check->verify;
  constexpr std::uint64_t kRanks = 32;
  constexpr std::uint64_t kBuffer = 32 * 17408;  // 557,056 bytes
  // Two invocations by the checker, the last one again by measure.
  EXPECT_EQ(v.invocations, 3u);
  EXPECT_EQ(v.snapshot_bytes, 2 * kRanks * 2 * kBuffer);  // 71,303,168
  EXPECT_EQ(v.compared_bytes, 3 * kRanks * kBuffer);
  EXPECT_EQ(v.folded_bytes, 0u);  // alltoall reduces nothing
  // Every block but a rank's own travels as a message, and the plane
  // copies each once.
  EXPECT_EQ(r.perf.check->copied_bytes, 2 * kRanks * (kRanks - 1) * 17408);
  // A rerun counts the same.
  EXPECT_TRUE(run().perf.check == r.perf.check);

  core::PerfReport rep;
  rep.add(r);
  const std::string json = rep.json("t");
  EXPECT_NE(json.find("\"snapshot_bytes\": 71303168,\n"), std::string::npos);
  EXPECT_NE(json.find("\"verified_invocations\": 3,\n"), std::string::npos);
  EXPECT_NE(rep.line().find(", check: 3 invocations verified, 68M "
                            "snapshotted, 51M compared, 0 folded, "),
            std::string::npos)
      << rep.line();
}

TEST(PerfReport, CheckBlockAppearsOnlyOnDataOrCheckedPoints) {
  core::PerfReport rep;
  rep.add(perf_point(CollKind::allreduce, 4, 65536,
                     fabric::FabricLevel::none));
  EXPECT_FALSE(rep.check.has_value());
  EXPECT_EQ(rep.json("t").find("snapshot_bytes"), std::string::npos);
  EXPECT_EQ(rep.line().find("check:"), std::string::npos);

  // A checked metadata-only point carries the block, with no data work.
  core::MeasureOptions opt;
  opt.iterations = 1;
  opt.warmup = 0;
  opt.check = check::CheckLevel::basic;
  CollSpec spec;
  spec.algo = "rd";
  rep.add(core::measure_collective(CollKind::allreduce,
                                   net::cluster_by_name("test"), 2, 2, 1024,
                                   spec, opt));
  ASSERT_TRUE(rep.check.has_value());
  EXPECT_TRUE(*rep.check == core::CheckCounters{});
  EXPECT_NE(rep.json("t").find("\"snapshot_bytes\": 0,\n"),
            std::string::npos);
  EXPECT_NE(rep.line().find(", check: 0 invocations verified"),
            std::string::npos);
}

TEST(PerfReport, JsonWritesTheTagsAfterTool) {
  core::PerfReport rep;
  rep.add(perf_point(CollKind::bcast, 2, 1024, fabric::FabricLevel::none));
  const std::string json = rep.json(
      "bench_x", {{"placement", "\"round-robin\""}, {"adapt", "true"}});
  EXPECT_EQ(json.rfind("{\n  \"tool\": \"bench_x\",\n"
                       "  \"placement\": \"round-robin\",\n"
                       "  \"adapt\": true,\n"
                       "  \"points\": 1,\n",
                       0),
            0u);
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
}

}  // namespace
}  // namespace dpml
