// Empirical tuner (paper §6.4's per-size best-configuration search).
#include <gtest/gtest.h>

#include "core/tuner.hpp"
#include "net/cluster.hpp"

namespace dpml::core {
namespace {

constexpr CollKind kAllreduce = CollKind::allreduce;

std::vector<CollSpec> candidates(int ppn, bool has_sharp, std::size_t bytes) {
  return registry_candidates(kAllreduce, ppn, has_sharp, bytes);
}

bool needs_sharp(const CollSpec& s) {
  return coll::CollRegistry::instance()
      .at(kAllreduce, s.algo)
      .caps.needs_fabric;
}

TEST(Tuner, CandidatesMatchPaperSweep) {
  const auto c = candidates(28, false, 512 * 1024);
  // Leaders 1,2,4,8,16 plus pipelined variants of the larger counts.
  int plain = 0;
  int piped = 0;
  for (const auto& s : c) {
    EXPECT_EQ(s.algo, "dpml");
    if (s.pipeline_k == 1) {
      ++plain;
    } else {
      ++piped;
    }
  }
  EXPECT_EQ(plain, 5);
  EXPECT_GT(piped, 0);
}

TEST(Tuner, CandidatesClampAndDeduplicate) {
  const auto c = candidates(4, false, 1024);
  int count = 0;
  for (const auto& s : c) {
    EXPECT_LE(s.leaders, 4);
    ++count;
  }
  EXPECT_EQ(count, 3);  // leaders 1, 2, 4
}

TEST(Tuner, IncludesSharpForSmallMessagesOnly) {
  const auto small = candidates(28, true, 256);
  bool has_sharp = false;
  for (const auto& s : small) has_sharp |= needs_sharp(s);
  EXPECT_TRUE(has_sharp);

  const auto large = candidates(28, true, 1 << 20);
  for (const auto& s : large) EXPECT_FALSE(needs_sharp(s));
}

TEST(Tuner, PicksManyLeadersForLargeMessages) {
  auto cfg = net::cluster_b();
  MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  const auto r = tune_collective(kAllreduce, cfg, 8, 28, 512 * 1024, opt);
  EXPECT_EQ(r.best.spec.algo, "dpml");
  EXPECT_GE(r.best.spec.leaders, 8);
  // Results are sorted fastest-first.
  for (std::size_t i = 1; i < r.all.size(); ++i) {
    EXPECT_LE(r.all[i - 1].avg_us, r.all[i].avg_us);
  }
}

TEST(Tuner, ReportFoldsEveryMeasuredCandidate) {
  auto cfg = net::cluster_b();
  MeasureOptions opt;
  opt.iterations = 1;
  opt.warmup = 0;
  const auto r = tune_collective(kAllreduce, cfg, 2, 8, 4096, opt);
  EXPECT_EQ(r.perf.points, static_cast<int>(r.all.size()));
  PerfReport sum;
  for (const TunedEntry& e : r.all) {
    sum.add(measure_collective(kAllreduce, cfg, 2, 8, 4096, e.spec, opt));
  }
  EXPECT_GT(r.perf.events, 0u);
  EXPECT_EQ(r.perf.events, sum.events);
  EXPECT_EQ(r.perf.resumes, sum.resumes);
  EXPECT_EQ(r.perf.frame_pool_misses, sum.frame_pool_misses);
}

TEST(Tuner, PicksFewLeadersForTinyMessages) {
  auto cfg = net::cluster_b();
  MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  const auto r = tune_collective(kAllreduce, cfg, 8, 28, 16, opt);
  if (r.best.spec.algo == "dpml") {
    EXPECT_LE(r.best.spec.leaders, 2);
  }
}

TEST(Tuner, PicksSharpForSmallMessagesOnClusterA) {
  auto cfg = net::cluster_a();
  MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  const auto r = tune_collective(kAllreduce, cfg, 8, 28, 64, opt);
  EXPECT_TRUE(needs_sharp(r.best.spec));
}

TEST(Tuner, SkipsSharpCandidatesOnFabriclessCluster) {
  auto cfg = net::cluster_c();
  MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  // Force SHArP candidates into the set; tuner must skip them.
  auto cands = candidates(28, true, 64);
  const auto r = tune_collective(kAllreduce, cfg, 4, 28, 64, cands, opt);
  EXPECT_FALSE(needs_sharp(r.best.spec));
}

TEST(Tuner, EmptyCandidateSetThrows) {
  auto cfg = net::cluster_b();
  EXPECT_THROW(
      tune_collective(kAllreduce, cfg, 2, 2, 64, std::vector<CollSpec>{}, {}),
      util::InvariantError);
}

}  // namespace
}  // namespace dpml::core
