// Time-only data plane (docs/MODEL.md §10): payload elision must never move
// simulated time. The golden parity suite locks bit-identical results —
// every registered (kind, algorithm) on the payload plane (with full data
// verification) versus the time-only plane, on pristine, perturbed, and
// flow-level-fabric machines. Further suites cover the TimeOnlyPlane
// contract itself (metadata-only captures, POD rank state, payload bytes
// rejected), the up-front conflict errors, a randomized property sweep, and
// executor byte-identity for time-only batches.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "check/check.hpp"
#include "coll/registry.hpp"
#include "core/executor.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "sim/dataplane.hpp"
#include "sim/timeonly.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpml::core {
namespace {

// Everything a run reports that could possibly drift: the full timing
// surface plus the event count.
struct Digest {
  double avg, best, worst, median, p99;
  std::uint64_t events;

  bool operator==(const Digest& o) const {
    return avg == o.avg && best == o.best && worst == o.worst &&
           median == o.median && p99 == o.p99 && events == o.events;
  }
};

Digest digest(const MeasureResult& r) {
  return {r.avg_us, r.best_us, r.worst_us, r.median_us, r.p99_us, r.events};
}

enum class Variant { pristine, perturbed, fabric };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::pristine: return "pristine";
    case Variant::perturbed: return "perturbed";
    default: return "fabric";
  }
}

MeasureOptions variant_opts(Variant v) {
  MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  switch (v) {
    case Variant::pristine:
      break;
    case Variant::perturbed:
      opt.perturb = perturb::PerturbSpec::parse("jitter=lognormal:sigma=0.2");
      opt.repetitions = 2;
      break;
    case Variant::fabric:
      opt.fabric = fabric::FabricLevel::links;
      break;
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Golden parity: payload (with full data verification) vs time-only must be
// bit-identical in simulated time and event count for every registered
// algorithm of every kind, on every machine variant.

class GoldenParity : public ::testing::TestWithParam<Variant> {};

TEST_P(GoldenParity, EveryKindEveryAlgorithmBitIdentical) {
  const Variant v = GetParam();
  const int nodes = 5;  // non-power-of-two world: ragged partitions covered
  const int ppn = 2;
  const auto cfg = net::test_cluster(nodes);
  std::uint64_t total_elided = 0;
  for (const coll::CollKind kind : coll::kAllCollKinds) {
    for (const std::string& algo :
         coll::CollRegistry::instance().names(kind)) {
      const auto& d = coll::CollRegistry::instance().at(kind, algo);
      if (d.caps.min_comm_size > nodes * ppn) continue;
      if (d.caps.needs_payload) continue;  // rejected by design, not compared
      for (const std::size_t bytes : {std::size_t{512}, std::size_t{8192}}) {
        if (kind == coll::CollKind::barrier && bytes != 512) continue;
        coll::CollSpec spec;
        spec.algo = algo;
        spec.leaders = 3;

        MeasureOptions payload = variant_opts(v);
        payload.with_data = true;
        MeasureOptions timeonly = variant_opts(v);
        timeonly.data_mode = sim::DataMode::timeonly;

        const std::string what = std::string(variant_name(v)) + " " +
                                 coll::coll_kind_name(kind) + "/" + algo +
                                 " bytes=" + std::to_string(bytes);
        const auto p = measure_collective(kind, cfg, nodes, ppn, bytes, spec,
                                          payload);
        const auto t = measure_collective(kind, cfg, nodes, ppn, bytes, spec,
                                          timeonly);
        EXPECT_TRUE(p.verified) << what;
        EXPECT_TRUE(digest(p) == digest(t))
            << what << ": payload avg=" << p.avg_us << " events=" << p.events
            << " vs time-only avg=" << t.avg_us << " events=" << t.events;
        // Zero-byte messages (barrier) and fabric-offloaded payloads (the
        // SHArP designs) legitimately elide nothing; the aggregate below
        // still proves the counter is wired.
        total_elided += t.perf.elided_bytes;
        EXPECT_EQ(p.perf.elided_bytes, 0u) << what;
      }
    }
  }
  EXPECT_GT(total_elided, 0u) << "no time-only run elided any payload";
}

INSTANTIATE_TEST_SUITE_P(Variants, GoldenParity,
                         ::testing::Values(Variant::pristine,
                                           Variant::perturbed,
                                           Variant::fabric),
                         [](const auto& info) {
                           return std::string(variant_name(info.param));
                         });

// ---------------------------------------------------------------------------
// The plane contract.

TEST(TimeOnlyPlane, RankStateIsCompactPod) {
  static_assert(std::is_trivially_copyable_v<sim::TimeOnlyRankState>);
  static_assert(sizeof(sim::TimeOnlyRankState) == 32,
                "one cache-line holds two rank records");
}

TEST(TimeOnlyPlane, CapturesMetadataOnly) {
  sim::TimeOnlyPlane plane(4);
  sim::MsgMeta meta;
  meta.src = 2;
  meta.bytes = 4096;
  meta.op_cost = 7;
  const std::vector<std::byte> got = plane.capture(meta, nullptr, 0);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(plane.elided_bytes(), 4096u);
  EXPECT_EQ(plane.elided_messages(), 1u);
  EXPECT_EQ(plane.rank_state(2).messages, 1u);
  EXPECT_EQ(plane.rank_state(2).bytes, 4096u);
  EXPECT_EQ(plane.rank_state(2).op_cost_total, 7);
  EXPECT_EQ(plane.rank_state(0).messages, 0u);
  EXPECT_EQ(plane.recycler(), nullptr);
  EXPECT_EQ(plane.mode(), sim::DataMode::timeonly);
  EXPECT_EQ(sim::data_mode_by_name("time-only"), sim::DataMode::timeonly);
  EXPECT_STREQ(sim::data_mode_name(sim::DataMode::payload), "payload");
}

TEST(TimeOnlyPlane, PayloadBytesAreRejected) {
  sim::TimeOnlyPlane plane(2);
  sim::MsgMeta meta;
  meta.src = 0;
  meta.bytes = 8;
  const std::byte data[8] = {};
  try {
    plane.capture(meta, data, sizeof(data));
    FAIL() << "payload bytes reached the time-only plane without an error";
  } catch (const util::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("time-only"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Conflicts are rejected up front, naming the offending option and a remedy.

void expect_throw_containing(const std::function<void()>& fn,
                             const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected util::InvariantError";
  } catch (const util::InvariantError& e) {
    const std::string msg = e.what();
    for (const std::string& n : needles) {
      EXPECT_NE(msg.find(n), std::string::npos)
          << "message '" << msg << "' lacks '" << n << "'";
    }
  }
}

TEST(TimeOnlyConflicts, WithDataIsRejectedWithRemedy) {
  const auto cfg = net::test_cluster(2);
  coll::CollSpec spec;
  MeasureOptions opt;
  opt.data_mode = sim::DataMode::timeonly;
  opt.with_data = true;
  expect_throw_containing(
      [&] {
        measure_collective(coll::CollKind::allreduce, cfg, 2, 2, 256, spec,
                           opt);
      },
      {"with_data", "data_mode=timeonly", "data_mode=payload"});
}

TEST(TimeOnlyConflicts, SimcheckIsRejectedWithRemedy) {
  const auto cfg = net::test_cluster(2);
  coll::CollSpec spec;
  MeasureOptions opt;
  opt.data_mode = sim::DataMode::timeonly;
  opt.check = check::CheckLevel::strict;
  expect_throw_containing(
      [&] {
        measure_collective(coll::CollKind::allreduce, cfg, 2, 2, 256, spec,
                           opt);
      },
      {"check=strict", "data_mode=timeonly", "check=off"});
}

TEST(TimeOnlyConflicts, NeedsPayloadAlgorithmIsRejected) {
  // A synthetic design whose control flow inspects payload values; no
  // in-tree algorithm sets the flag, so register one just for this test.
  static const bool registered = [] {
    coll::CollDescriptor d;
    d.name = "test-needs-payload";
    d.kind = coll::CollKind::allreduce;
    d.caps.needs_payload = true;
    d.make = [](coll::CollArgs, const coll::CollSpec&) -> sim::CoTask<void> {
      co_return;
    };
    coll::CollRegistry::instance().add(std::move(d));
    return true;
  }();
  ASSERT_TRUE(registered);
  const auto cfg = net::test_cluster(2);
  coll::CollSpec spec;
  spec.algo = "test-needs-payload";
  MeasureOptions opt;
  opt.data_mode = sim::DataMode::timeonly;
  expect_throw_containing(
      [&] {
        measure_collective(coll::CollKind::allreduce, cfg, 2, 2, 256, spec,
                           opt);
      },
      {"test-needs-payload", "needs_payload", "data_mode=payload"});
}

// ---------------------------------------------------------------------------
// Randomized property: seeded random (kind, algorithm, shape, size, variant)
// draws must digest identically across the payload/time-only planes.

TEST(TimeOnlyProperty, RandomDrawsDigestIdentically) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::SplitMix64 rng(seed);
    const coll::CollKind kind = coll::kAllCollKinds[rng.next_below(
        std::size(coll::kAllCollKinds))];
    const auto algos = coll::CollRegistry::instance().names(kind);
    const std::string algo = algos[rng.next_below(algos.size())];
    const auto& d = coll::CollRegistry::instance().at(kind, algo);
    if (d.caps.needs_payload) continue;  // the synthetic test-only design
    const int nodes = static_cast<int>(2 + rng.next_below(4));
    int ppn = static_cast<int>(1 + rng.next_below(3));
    while (nodes * ppn < d.caps.min_comm_size) ++ppn;
    const std::size_t bytes = 4 * (1 + rng.next_below(4096));
    const Variant v = static_cast<Variant>(rng.next_below(3));

    coll::CollSpec spec;
    spec.algo = algo;
    spec.leaders = static_cast<int>(1 + rng.next_below(6));

    MeasureOptions payload = variant_opts(v);
    payload.with_data = true;
    payload.seed = seed;
    MeasureOptions timeonly = variant_opts(v);
    timeonly.data_mode = sim::DataMode::timeonly;
    timeonly.seed = seed;

    const auto cfg = net::test_cluster(nodes);
    const std::string what = "seed " + std::to_string(seed) + ": " +
                             std::string(variant_name(v)) + " " +
                             coll::coll_kind_name(kind) + "/" + algo + " " +
                             std::to_string(nodes) + "x" +
                             std::to_string(ppn) + " bytes=" +
                             std::to_string(bytes);
    const auto p = measure_collective(kind, cfg, nodes, ppn, bytes, spec,
                                      payload);
    const auto t = measure_collective(kind, cfg, nodes, ppn, bytes, spec,
                                      timeonly);
    EXPECT_TRUE(p.verified) << what;
    EXPECT_TRUE(digest(p) == digest(t)) << what << " (payload vs time-only)";
  }
}

// ---------------------------------------------------------------------------
// Time-only batches through the sweep executor: any jobs width produces the
// byte-identical digest vector (docs/MODEL.md §8 extends to the new plane).

TEST(TimeOnlyExecutor, ByteIdenticalAcrossJobCounts) {
  constexpr std::size_t kBatch = 16;
  const auto digest_all = [&](int jobs) {
    return Executor(jobs).map<Digest>(kBatch, [](std::size_t i) {
      const std::uint64_t seed = 500 + i;
      util::SplitMix64 rng(seed);
      const coll::CollKind kind = coll::kAllCollKinds[rng.next_below(
          std::size(coll::kAllCollKinds))];
      const auto algos = coll::CollRegistry::instance().names(kind);
      coll::CollSpec spec;
      spec.algo = algos[rng.next_below(algos.size())];
      const auto& d = coll::CollRegistry::instance().at(kind, spec.algo);
      const int nodes = static_cast<int>(2 + rng.next_below(3));
      int ppn = static_cast<int>(1 + rng.next_below(3));
      while (nodes * ppn < d.caps.min_comm_size) ++ppn;
      MeasureOptions opt;
      opt.iterations = 2;
      opt.warmup = 1;
      opt.seed = seed;
      if (!d.caps.needs_payload) opt.data_mode = sim::DataMode::timeonly;
      return digest(measure_collective(kind, net::test_cluster(nodes), nodes,
                                       ppn, 4 * (1 + rng.next_below(2048)),
                                       spec, opt));
    });
  };
  const std::vector<Digest> serial = digest_all(1);
  const std::vector<Digest> wide = digest_all(4);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(serial[i] == wide[i])
        << "slot " << i << ": jobs=1 avg=" << serial[i].avg
        << " vs jobs=4 avg=" << wide[i].avg;
  }
}

}  // namespace
}  // namespace dpml::core
