// Perturbation subsystem tests.
//
// Three contracts are locked here:
//   1. An empty (or merely neutral) PerturbSpec is *bit-identical* to the
//      pristine simulator, across every registered algorithm of all four
//      collective kinds — the perturbation layer costs nothing when off.
//   2. Identical specs (seed included) reproduce identical simulated times
//      run-to-run; different seeds realize different noise.
//   3. Each injector does what its model says: jitter/stragglers slow
//      compute, skew staggers collective entries (and is measured by
//      ImbalanceStats), link rules degrade matching paths in their windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "adapt/adapt.hpp"
#include "coll/registry.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "perturb/perturb.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/stats.hpp"
#include "util/error.hpp"

namespace dpml {
namespace {

using core::CollKind;
using core::MeasureOptions;
using perturb::PerturbSpec;

// ---------------------------------------------------------------------------
// Spec parsing

TEST(PerturbSpec, EmptyFormsAreEmpty) {
  EXPECT_TRUE(PerturbSpec{}.empty());
  EXPECT_TRUE(PerturbSpec::parse("").empty());
  EXPECT_TRUE(PerturbSpec::parse("  ").empty());
  // A bare seed configures no injector: still the pristine machine.
  EXPECT_TRUE(PerturbSpec::parse("seed=42").empty());
  // Neutral stragglers (scale 1) perturb nothing.
  EXPECT_TRUE(PerturbSpec::parse("stragglers=k=3,scale=1").empty());
  EXPECT_EQ(PerturbSpec{}.to_string(), "");
}

TEST(PerturbSpec, ParsesEveryInjector) {
  const auto s = PerturbSpec::parse(
      "jitter=lognormal:sigma=0.3;skew=uniform:max_us=50;"
      "link=bw=0.5,lat_us=5,src=0,dst=1,from_us=10,until_us=20;"
      "stragglers=k=2,scale=3;seed=7");
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.jitter.kind, perturb::JitterKind::lognormal);
  EXPECT_DOUBLE_EQ(s.jitter.sigma, 0.3);
  EXPECT_EQ(s.skew.kind, perturb::SkewKind::uniform);
  EXPECT_EQ(s.skew.max, sim::us(50.0));
  ASSERT_EQ(s.links.size(), 1u);
  EXPECT_DOUBLE_EQ(s.links[0].bw_scale, 0.5);
  EXPECT_EQ(s.links[0].extra_latency, sim::us(5.0));
  EXPECT_EQ(s.links[0].src, 0);
  EXPECT_EQ(s.links[0].dst, 1);
  EXPECT_EQ(s.links[0].from, sim::us(10.0));
  EXPECT_EQ(s.links[0].until, sim::us(20.0));
  EXPECT_EQ(s.stragglers.count, 2);
  EXPECT_DOUBLE_EQ(s.stragglers.scale, 3.0);
  EXPECT_EQ(s.seed, 7u);
}

TEST(PerturbSpec, FixedSkewOffsets) {
  const auto s = PerturbSpec::parse("skew=fixed:us=0/10/20");
  EXPECT_EQ(s.skew.kind, perturb::SkewKind::fixed);
  ASSERT_EQ(s.skew.offsets.size(), 3u);
  EXPECT_EQ(s.skew.offsets[1], sim::us(10.0));
}

TEST(PerturbSpec, RoundTripsThroughToString) {
  const std::string text =
      "jitter=spike:prob=0.05,scale=4;skew=fixed:us=0/25;"
      "link=bw=0.5,lat_us=2;stragglers=k=1,scale=2;seed=9";
  const auto s = PerturbSpec::parse(text);
  // Canonical form re-parses to the same canonical form.
  EXPECT_EQ(PerturbSpec::parse(s.to_string()).to_string(), s.to_string());
}

TEST(PerturbSpec, UnknownInjectorListsAllValidOnes) {
  try {
    PerturbSpec::parse("jiter=uniform:frac=0.1");
    FAIL() << "expected InvariantError";
  } catch (const util::InvariantError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown perturbation injector 'jiter'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("jitter, skew, link, stragglers, seed"),
              std::string::npos)
        << msg;
  }
}

TEST(PerturbSpec, BadParametersAreNamed) {
  EXPECT_THROW(PerturbSpec::parse("jitter=gaussian:sigma=1"),
               util::InvariantError);
  EXPECT_THROW(PerturbSpec::parse("jitter=uniform:width=0.1"),
               util::InvariantError);
  EXPECT_THROW(PerturbSpec::parse("jitter=uniform:frac=1.5"),
               util::InvariantError);
  EXPECT_THROW(PerturbSpec::parse("skew=fixed"), util::InvariantError);
  EXPECT_THROW(PerturbSpec::parse("link=bw=0"), util::InvariantError);
  EXPECT_THROW(PerturbSpec::parse("link=bw=0.5,from_us=20,until_us=10"),
               util::InvariantError);
  EXPECT_THROW(PerturbSpec::parse("stragglers=k=-1"), util::InvariantError);
  EXPECT_THROW(PerturbSpec::parse("seed=abc"), util::InvariantError);
}

TEST(PerturbSpec, StructuralErrorsNameTheFlagAndKey) {
  // A repeated key or injector used to win silently (frac 0.2, the second
  // jitter); an empty key or a key without a value is rejected the same
  // way, in one line.
  struct Probe {
    const char* spec;
    const char* names;
  };
  const Probe probes[] = {
      {"jitter=uniform:frac=0.1,frac=0.2",
       "bad --perturb spec: key 'frac' given twice"},
      {"jitter=uniform:frac=0.1;jitter=lognormal:sigma=0.2",
       "bad --perturb spec: injector 'jitter' given twice"},
      {"seed=1;skew=uniform:max_us=5;seed=2",
       "bad --perturb spec: injector 'seed' given twice"},
      {"link=bw=0.5,,src=1", "bad --perturb spec: empty key"},
      {"link=bw", "bad --perturb spec: key 'bw' has no value"},
      {"stragglers=k=2,scale=", "bad --perturb spec: key 'scale' has no value"},
  };
  for (const Probe& p : probes) {
    try {
      (void)PerturbSpec::parse(p.spec);
      ADD_FAILURE() << p.spec << " was accepted";
    } catch (const util::InvariantError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(p.names), std::string::npos) << msg;
      EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
      EXPECT_EQ(msg.find("check failed"), std::string::npos) << msg;
    }
  }
  // Link rules compose, so a second link= is a second rule.
  EXPECT_EQ(PerturbSpec::parse("link=bw=0.5,src=0;link=bw=0.25,src=1")
                .links.size(),
            2u);
}

TEST(PerturbSpec, NumbersFollowTheArgsRule) {
  // A number is its whole text, fits its field (an int, or a uint64 seed)
  // and is finite; the error names --perturb, the injector and the field.
  struct Probe {
    const char* spec;
    const char* names;
  };
  const Probe probes[] = {
      {"stragglers=k=4294967297,scale=3", "--perturb stragglers k"},
      {"jitter=lognormal:sigma=nan", "--perturb jitter sigma"},
      {"link=bw=inf", "--perturb link bw"},
      {"link=bw=0.5,src=2x", "--perturb link src"},
      {"seed=-1", "--perturb seed"},
  };
  for (const Probe& p : probes) {
    try {
      (void)PerturbSpec::parse(p.spec);
      ADD_FAILURE() << p.spec << " was accepted";
    } catch (const util::InvariantError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(p.names), std::string::npos) << msg;
      EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(PerturbSpec::parse("seed=18446744073709551615").seed,
            std::numeric_limits<std::uint64_t>::max());
}

// ---------------------------------------------------------------------------
// Runtime units

TEST(Perturbation, EmptySpecBuildsNoRuntime) {
  simmpi::RunOptions opt;
  opt.perturb = PerturbSpec::parse("seed=123");
  simmpi::Machine m(net::test_cluster(2), 2, 2, opt);
  EXPECT_EQ(m.perturbation(), nullptr);
}

TEST(Perturbation, StragglerChoiceIsSeededAndSorted) {
  auto spec = PerturbSpec::parse("stragglers=k=3,scale=2;seed=5");
  perturb::Perturbation a(spec, 64), b(spec, 64);
  ASSERT_EQ(a.straggler_ranks().size(), 3u);
  EXPECT_EQ(a.straggler_ranks(), b.straggler_ranks());
  EXPECT_TRUE(std::is_sorted(a.straggler_ranks().begin(),
                             a.straggler_ranks().end()));
  for (int r : a.straggler_ranks()) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 64);
    EXPECT_DOUBLE_EQ(a.charge_scale(r), 2.0);
  }
  spec.seed = 6;
  perturb::Perturbation c(spec, 64);
  EXPECT_NE(a.straggler_ranks(), c.straggler_ranks());
}

TEST(Perturbation, LinkRulesMatchSymmetricallyAndInWindows) {
  const auto spec = PerturbSpec::parse(
      "link=bw=0.25,lat_us=5,src=0,dst=1,from_us=10,until_us=20;"
      "link=bw=0.5,dst=1");
  perturb::Perturbation p(spec, 8);
  ASSERT_TRUE(p.has_link_rules());
  // Inside the window, both rules hit the (0,1) pair: scales multiply.
  EXPECT_DOUBLE_EQ(p.link_bw_scale(0, 1, sim::us(15.0)), 0.25 * 0.5);
  EXPECT_DOUBLE_EQ(p.link_bw_scale(1, 0, sim::us(15.0)), 0.25 * 0.5);
  EXPECT_EQ(p.link_extra_latency(0, 1, sim::us(15.0)), sim::us(5.0));
  // Outside the window only the always-on wildcard rule applies.
  EXPECT_DOUBLE_EQ(p.link_bw_scale(0, 1, sim::us(5.0)), 0.5);
  EXPECT_DOUBLE_EQ(p.link_bw_scale(0, 1, sim::us(20.0)), 0.5);
  EXPECT_EQ(p.link_extra_latency(0, 1, sim::us(25.0)), 0);
  // Pairs not involving node 1 match neither rule.
  EXPECT_DOUBLE_EQ(p.link_bw_scale(2, 3, sim::us(15.0)), 1.0);
}

TEST(Perturbation, NestedCollectivesSkewOnlyTheOutermostEntry) {
  auto spec = PerturbSpec::parse("skew=fixed:us=0/10");
  perturb::Perturbation p(spec, 2);
  EXPECT_TRUE(p.enter_collective(1));   // outermost: skew applies
  EXPECT_FALSE(p.enter_collective(1));  // nested dispatch: no re-skew
  p.exit_collective(1);
  p.exit_collective(1);
  EXPECT_TRUE(p.enter_collective(1));
  EXPECT_EQ(p.arrival_offset(1), sim::us(10.0));
  EXPECT_EQ(p.arrival_offset(0), 0);
}

TEST(ImbalanceTracker, FoldsPerOpSkewAndWait) {
  simmpi::ImbalanceTracker t;
  // Op 0 of key "a": entries at 0/30/10, exits at 100/100/120.
  t.note("a", 3, 0, 0, 100);
  t.note("a", 3, 1, sim::us(30.0), 100);
  EXPECT_TRUE(t.stats().empty());  // still open until all parties report
  t.note("a", 3, 2, sim::us(10.0), 120);
  const auto& st = t.stats().at("a");
  EXPECT_EQ(st.ops, 1u);
  EXPECT_EQ(st.entry_skew_max, sim::us(30.0));
  EXPECT_EQ(st.exit_skew_total, sim::Time{20});
  // Summed wait: (30-0) + (30-30) + (30-10) us.
  EXPECT_EQ(st.wait_total, sim::us(50.0));
}

// ---------------------------------------------------------------------------
// Bit-identity of empty and neutral specs, across the whole registry

// Measures every registered algorithm of every collective kind on the test
// cluster and returns the latencies. Two sizes, straddling the rendezvous
// threshold, so eager, rendezvous, and shm paths are all exercised.
std::vector<double> measure_all(const MeasureOptions& opt) {
  const auto cfg = net::test_cluster(4);
  std::vector<double> out;
  for (CollKind kind : coll::kAllCollKinds) {
    for (const coll::CollDescriptor* d :
         coll::CollRegistry::instance().list(kind)) {
      core::CollSpec spec;
      spec.algo = d->name;
      spec.leaders = 2;
      for (std::size_t bytes : {512ul, 8192ul}) {
        out.push_back(core::measure_collective(kind, cfg, 4, 4, bytes, spec,
                                               opt)
                          .avg_us);
      }
    }
  }
  return out;
}

TEST(PerturbGolden, EmptyAndNeutralSpecsAreBitIdentical) {
  MeasureOptions base;
  base.iterations = 2;
  base.warmup = 1;
  const std::vector<double> clean = measure_all(base);
  EXPECT_GT(clean.size(), 20u);  // the registry is populated

  // Empty spec (different seed is irrelevant): no runtime is built.
  MeasureOptions empty = base;
  empty.perturb = PerturbSpec::parse("seed=99");
  EXPECT_EQ(measure_all(empty), clean);

  // Neutral spec: a bw=1 link rule *does* build a Perturbation and routes
  // every collective through the attribution wrapper and the scale hooks —
  // all of which must be exact no-ops at factor 1 / offset 0.
  MeasureOptions neutral = base;
  neutral.perturb = PerturbSpec::parse("link=bw=1");
  EXPECT_FALSE(neutral.perturb.empty());
  EXPECT_EQ(measure_all(neutral), clean);
}

// ---------------------------------------------------------------------------
// Reproducibility and injector effects

MeasureOptions perturbed_opt(const std::string& spec, int reps = 1) {
  MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  opt.repetitions = reps;
  opt.perturb = PerturbSpec::parse(spec);
  return opt;
}

double measure_dpml(const MeasureOptions& opt, std::size_t bytes = 8192) {
  core::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 2;
  return core::measure_collective(CollKind::allreduce, net::test_cluster(4),
                                  4, 4, bytes, spec, opt)
      .avg_us;
}

TEST(PerturbRepro, IdenticalSeedsReproduceIdenticalTimes) {
  const std::string spec =
      "jitter=lognormal:sigma=0.3;skew=uniform:max_us=20;"
      "stragglers=k=2,scale=2;seed=11";
  const double a = measure_dpml(perturbed_opt(spec, 3));
  const double b = measure_dpml(perturbed_opt(spec, 3));
  EXPECT_EQ(a, b);  // exact: same seeds, same draws, same event order
}

TEST(PerturbRepro, DifferentSeedsRealizeDifferentNoise) {
  const double a =
      measure_dpml(perturbed_opt("jitter=lognormal:sigma=0.3;seed=1"));
  const double b =
      measure_dpml(perturbed_opt("jitter=lognormal:sigma=0.3;seed=2"));
  EXPECT_NE(a, b);
}

TEST(PerturbRepro, FabricRunsAreSeedDeterministic) {
  // The clean-path guarantee extends to fabric_level=links: the flow
  // allocator iterates in deterministic order, so identical seeds must
  // reproduce identical simulated times even with perturbations active.
  const std::string spec =
      "jitter=lognormal:sigma=0.3;link=bw=0.5;seed=11";
  auto opt = perturbed_opt(spec, 2);
  opt.fabric = fabric::FabricLevel::links;
  const double a = measure_dpml(opt, 65536);
  const double b = measure_dpml(opt, 65536);
  EXPECT_EQ(a, b);
}

TEST(PerturbEffect, LinkDegradationScalesFabricCapacities) {
  // Under the flow fabric, link rules act as per-link capacity scaling
  // rather than LogGP wire stretching — the degraded run must still be
  // strictly slower than the neutral bw=1 baseline.
  auto clean = perturbed_opt("link=bw=1");
  clean.fabric = fabric::FabricLevel::links;
  auto degraded = perturbed_opt("link=bw=0.25");
  degraded.fabric = fabric::FabricLevel::links;
  EXPECT_GT(measure_dpml(degraded, 65536), measure_dpml(clean, 65536));
}

TEST(PerturbEffect, JitterSpikesSlowTheRun) {
  const double clean = measure_dpml(perturbed_opt("link=bw=1"));
  // prob=1 fires the spike on every compute charge: strictly slower.
  const double noisy =
      measure_dpml(perturbed_opt("jitter=spike:prob=1,scale=3"));
  EXPECT_GT(noisy, clean);
}

TEST(PerturbEffect, StragglersSlowTheRun) {
  const double clean = measure_dpml(perturbed_opt("link=bw=1"));
  const double straggling =
      measure_dpml(perturbed_opt("stragglers=k=2,scale=4;seed=3"));
  EXPECT_GT(straggling, clean);
}

TEST(PerturbEffect, LinkDegradationSlowsInterNodeTraffic) {
  const double clean = measure_dpml(perturbed_opt("link=bw=1"), 65536);
  const double degraded =
      measure_dpml(perturbed_opt("link=bw=0.25"), 65536);
  EXPECT_GT(degraded, clean);
}

TEST(PerturbEffect, FixedSkewIsMeasuredByImbalanceStats) {
  core::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 2;
  const auto opt = perturbed_opt("skew=fixed:us=0/50");
  const auto r = core::measure_collective(
      CollKind::allreduce, net::test_cluster(4), 4, 4, 4096, spec, opt);
  // Odd ranks enter 50us after even ranks: per-op entry skew is exactly
  // 50us, and 8 of 16 ranks wait out the offset.
  EXPECT_NEAR(r.entry_skew_avg_us, 50.0, 1e-6);
  EXPECT_NEAR(r.wait_avg_us, 8 * 50.0, 1e-6);
  EXPECT_GT(r.imbalance_ops, 0u);
  const double clean = measure_dpml(perturbed_opt("link=bw=1"), 4096);
  EXPECT_GT(r.avg_us, clean);
}

TEST(PerturbMeasure, RepetitionsPopulatePercentiles) {
  const auto opt = perturbed_opt("jitter=lognormal:sigma=0.3;seed=4", 5);
  core::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 2;
  const auto r = core::measure_collective(
      CollKind::allreduce, net::test_cluster(4), 4, 4, 8192, spec, opt);
  EXPECT_GT(r.median_us, 0.0);
  EXPECT_LE(r.best_us, r.median_us);
  EXPECT_LE(r.median_us, r.p99_us);
  EXPECT_LE(r.p99_us, r.worst_us);
}

TEST(PerturbMeasure, DataModeStaysVerifiedUnderNoise) {
  // Perturbations move time, never bytes: results remain bit-exact.
  MeasureOptions opt = perturbed_opt(
      "jitter=lognormal:sigma=0.4;skew=uniform:max_us=30;"
      "stragglers=k=2,scale=3;link=bw=0.5;seed=8");
  opt.with_data = true;
  core::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 2;
  for (CollKind kind : coll::kAllCollKinds) {
    core::CollSpec s = spec;
    if (kind != CollKind::allreduce) s.algo = "auto";
    const auto r = core::measure_collective(kind, net::test_cluster(4), 4, 4,
                                            2048, s, opt);
    EXPECT_TRUE(r.verified) << coll::coll_kind_name(kind);
  }
}

TEST(PerturbTuner, TunerSweepsUnderAPerturbSpec) {
  // The tuner threads MeasureOptions through: tuning under noise picks a
  // configuration from perturbed measurements without error.
  const auto opt = perturbed_opt("jitter=uniform:frac=0.2;seed=2");
  const auto table = adapt::AdaptiveTable::tune(
      CollKind::allreduce, net::test_cluster(4), 4, 4, {1024, 16384}, opt);
  EXPECT_FALSE(table.serialize().empty());
}

}  // namespace
}  // namespace dpml
