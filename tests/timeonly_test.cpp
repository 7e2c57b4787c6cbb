// Metadata-only runs (docs/MODEL.md §10): eliding payload must never move
// simulated time. The golden parity suite locks bit-identical results —
// every registered (kind, algorithm) with payload (and full data
// verification) versus metadata-only, on pristine, perturbed, and
// flow-level-fabric machines. Further suites cover the data plane's
// metadata-only contract (nothing captured, elided bytes counted, payload
// bytes rejected), a randomized property sweep, and executor byte-identity
// for metadata-only batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "core/executor.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "sim/dataplane.hpp"
#include "simmpi/machine.hpp"
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
// Golden parity: payload (with full data verification) vs metadata-only must
// be bit-identical in simulated time and event count for every registered
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
      for (const std::size_t bytes : {std::size_t{512}, std::size_t{8192}}) {
        if (kind == coll::CollKind::barrier && bytes != 512) continue;
        coll::CollSpec spec;
        spec.algo = algo;
        spec.leaders = 3;

        MeasureOptions payload = variant_opts(v);
        payload.with_data = true;
        const MeasureOptions meta = variant_opts(v);  // with_data = false

        const std::string what = std::string(variant_name(v)) + " " +
                                 coll::coll_kind_name(kind) + "/" + algo +
                                 " bytes=" + std::to_string(bytes);
        const auto p = measure_collective(kind, cfg, nodes, ppn, bytes, spec,
                                          payload);
        const auto t = measure_collective(kind, cfg, nodes, ppn, bytes, spec,
                                          meta);
        EXPECT_TRUE(p.verified) << what;
        EXPECT_TRUE(digest(p) == digest(t))
            << what << ": payload avg=" << p.avg_us << " events=" << p.events
            << " vs metadata-only avg=" << t.avg_us << " events=" << t.events;
        // Zero-byte messages (barrier) and fabric-offloaded payloads (the
        // SHArP designs) legitimately elide nothing; the aggregate below
        // still proves the counter is wired.
        total_elided += t.perf.elided_bytes;
        EXPECT_EQ(p.perf.elided_bytes, 0u) << what;
      }
    }
  }
  EXPECT_GT(total_elided, 0u) << "no metadata-only run elided any payload";
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

TEST(TimeOnlyPlane, CapturesMetadataOnly) {
  sim::Engine engine;
  sim::PayloadPlane meta(engine, /*with_data=*/false);
  EXPECT_TRUE(meta.capture(4096, {}).empty());
  EXPECT_TRUE(meta.capture(512, {}).empty());
  EXPECT_EQ(meta.elided_bytes(), 4608u);
  EXPECT_EQ(meta.copied_bytes(), 0u);

  // A payload machine's plane copies the bytes and elides nothing.
  sim::PayloadPlane payload(engine, /*with_data=*/true);
  const std::vector<std::byte> data(8, std::byte{7});
  sim::ByteBuffer got = payload.capture(data.size(), data);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin(), data.end()));
  EXPECT_EQ(payload.elided_bytes(), 0u);
  EXPECT_EQ(payload.copied_bytes(), 8u);
  payload.reclaim(std::move(got));
}

TEST(TimeOnlyPlane, PayloadBytesAreRejected) {
  // An inter-node (eager) and an intra-node (shared-memory) send. Both
  // capture their payload before any receive is needed, so no rank is left
  // suspended when the send throws.
  for (const int nodes : {2, 1}) {
    simmpi::RunOptions ro;
    ro.with_data = false;
    simmpi::Machine m(net::test_cluster(2), nodes, 2 / nodes, ro);
    const std::vector<std::byte> data(8);
    const std::string what = std::to_string(nodes) + " node(s)";
    try {
      m.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
        if (r.world_rank() == 0) {
          co_await r.send(m.world(), 1, 0, data.size(), data);
        }
      });
      ADD_FAILURE() << what << ": payload bytes reached a metadata-only "
                    << "machine without an error";
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("metadata-only"),
                std::string::npos)
          << what << ": " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized property: seeded random (kind, algorithm, shape, size, variant)
// draws must digest identically with payload and metadata-only.

TEST(TimeOnlyProperty, RandomDrawsDigestIdentically) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::SplitMix64 rng(seed);
    const coll::CollKind kind = coll::kAllCollKinds[rng.next_below(
        std::size(coll::kAllCollKinds))];
    const auto algos = coll::CollRegistry::instance().names(kind);
    const std::string algo = algos[rng.next_below(algos.size())];
    const auto& d = coll::CollRegistry::instance().at(kind, algo);
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
    MeasureOptions meta = variant_opts(v);  // with_data = false
    meta.seed = seed;

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
                                      meta);
    EXPECT_TRUE(p.verified) << what;
    EXPECT_TRUE(digest(p) == digest(t))
        << what << " (payload vs metadata-only)";
  }
}

// ---------------------------------------------------------------------------
// Metadata-only batches through the sweep executor: any jobs width produces
// the byte-identical digest vector (docs/MODEL.md §8).

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
      MeasureOptions opt;  // metadata-only (with_data = false)
      opt.iterations = 2;
      opt.warmup = 1;
      opt.seed = seed;
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
