// Randomized property tests: for seeded random (algorithm, shape, size,
// datatype, operator) combinations, every design must produce the exact
// serial-reference result, identical simulated time across repeats, and no
// leaked node-shared state. A second suite drives seeded random workloads
// (random dtype/op/count/in-place/leader-count) through the parallel sweep
// executor under check_level=strict and requires byte-identical digests for
// any jobs count (docs/MODEL.md §8).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include <cstring>

#include "check/check.hpp"
#include "coll/registry.hpp"
#include "core/executor.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "sharp/sharp.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/verify.hpp"
#include "tenant/tenant.hpp"
#include "util/rng.hpp"

namespace dpml::core {
namespace {

using simmpi::Dtype;
using simmpi::ReduceOp;

struct Scenario {
  const char* algo;  // registered allreduce name
  int nodes;
  int ppn;
  std::size_t count;
  Dtype dt;
  ReduceOp op;
  int leaders;
  int pipeline_k;
};

Scenario random_scenario(std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  const char* const algos[] = {
      "rd",       "rsa",         "ring",
      "binomial", "gather-bcast", "single-leader",
      "dpml",     "sharp-node-leader", "sharp-socket-leader",
      "mvapich2", "intelmpi",    "dpml-auto",
  };
  const Dtype dtypes[] = {Dtype::f32, Dtype::f64, Dtype::i32, Dtype::i64,
                          Dtype::u8};
  // Ops applicable to all dtypes above (prod kept exact by the operand
  // generator; bitwise restricted to integer dtypes below).
  Scenario s;
  s.algo = algos[rng.next_below(std::size(algos))];
  s.nodes = static_cast<int>(1 + rng.next_below(6));
  s.ppn = static_cast<int>(1 + rng.next_below(4));
  s.count = rng.next_below(1500);
  s.dt = dtypes[rng.next_below(std::size(dtypes))];
  switch (rng.next_below(5)) {
    case 0: s.op = ReduceOp::sum; break;
    case 1: s.op = ReduceOp::min; break;
    case 2: s.op = ReduceOp::max; break;
    case 3:
      s.op = ReduceOp::prod;
      s.count = rng.next_below(64);  // keep products representable
      break;
    default:
      s.op = (s.dt == Dtype::f32 || s.dt == Dtype::f64) ? ReduceOp::sum
                                                        : ReduceOp::bor;
      break;
  }
  s.leaders = static_cast<int>(1 + rng.next_below(16));
  s.pipeline_k = static_cast<int>(1 + rng.next_below(4));
  return s;
}

class RandomScenario : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomScenario, ExactAndDeterministic) {
  const Scenario s = random_scenario(GetParam());
  CollSpec spec;
  spec.algo = s.algo;
  spec.leaders = s.leaders;
  spec.pipeline_k = s.pipeline_k;
  MeasureOptions opt;
  opt.with_data = true;
  opt.iterations = 2;
  opt.warmup = 1;
  opt.dt = s.dt;
  opt.op = s.op;
  opt.seed = GetParam();
  auto cfg = net::test_cluster(s.nodes);
  const auto a = measure_collective(CollKind::allreduce, cfg, s.nodes, s.ppn,
                                    s.count * simmpi::dtype_size(s.dt), spec,
                                    opt);
  EXPECT_TRUE(a.verified)
      << s.algo << " " << s.nodes << "x" << s.ppn << " n="
      << s.count << " " << simmpi::dtype_name(s.dt) << " "
      << simmpi::op_name(s.op) << " l=" << s.leaders << " k=" << s.pipeline_k;
  const auto b = measure_collective(CollKind::allreduce, cfg, s.nodes, s.ppn,
                                    s.count * simmpi::dtype_size(s.dt), spec,
                                    opt);
  EXPECT_EQ(a.avg_us, b.avg_us) << "nondeterministic simulated time";
  EXPECT_EQ(a.events, b.events);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RandomScenario,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------------------
// Randomized every-kind sweep: a seeded random (kind, algorithm, shape,
// dtype, op, root, leaders) draw for each of the nine registry kinds must
// verify against its per-kind serial reference under strict checking and
// repeat with identical simulated time and event count.

TEST(RandomKindProperty, EveryKindExactAndDeterministic) {
  const Dtype dtypes[] = {Dtype::f32, Dtype::f64, Dtype::i32, Dtype::i64,
                          Dtype::u8};
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    util::SplitMix64 rng(seed);
    const coll::CollKind kind = coll::kAllCollKinds[rng.next_below(
        std::size(coll::kAllCollKinds))];
    const auto algos = coll::CollRegistry::instance().names(kind);
    const std::string algo = algos[rng.next_below(algos.size())];
    const auto& d = coll::CollRegistry::instance().at(kind, algo);
    const int nodes = static_cast<int>(2 + rng.next_below(3));
    int ppn = static_cast<int>(1 + rng.next_below(4));
    while (nodes * ppn < d.caps.min_comm_size) ++ppn;
    const Dtype dt = dtypes[rng.next_below(std::size(dtypes))];
    const std::size_t count = 1 + rng.next_below(900);

    coll::CollSpec spec;
    spec.algo = algo;
    spec.leaders = static_cast<int>(1 + rng.next_below(6));
    MeasureOptions opt;
    opt.with_data = true;
    opt.iterations = 2;
    opt.warmup = 1;
    opt.dt = dt;
    switch (rng.next_below(3)) {
      case 0: opt.op = ReduceOp::sum; break;
      case 1: opt.op = ReduceOp::min; break;
      default: opt.op = ReduceOp::max; break;
    }
    opt.root = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(nodes * ppn)));
    opt.check = check::CheckLevel::strict;
    opt.seed = seed;

    const auto cfg = net::test_cluster(nodes);
    const std::string what = std::string(coll::coll_kind_name(kind)) + "/" +
                             algo + " " + std::to_string(nodes) + "x" +
                             std::to_string(ppn) + " n=" +
                             std::to_string(count) + " " +
                             simmpi::dtype_name(dt) + " root=" +
                             std::to_string(opt.root) + " l=" +
                             std::to_string(spec.leaders);
    const auto a = measure_collective(kind, cfg, nodes, ppn,
                                      count * simmpi::dtype_size(dt), spec,
                                      opt);
    EXPECT_TRUE(a.verified) << what;
    const auto b = measure_collective(kind, cfg, nodes, ppn,
                                      count * simmpi::dtype_size(dt), spec,
                                      opt);
    EXPECT_EQ(a.avg_us, b.avg_us) << what << " nondeterministic time";
    EXPECT_EQ(a.events, b.events) << what;
  }
}

// ---------------------------------------------------------------------------
// Random workloads through the sweep executor, under strict simcheck.
//
// Each workload is a pure function of its seed: it builds its own Machine
// (strict checking, real data), runs one random registered allreduce with a
// random dtype/op/count/in-place/leader-count draw, and digests the outcome
// (result-buffer hash, engine event count, final simulated time, exactness
// against the serial reference). The digest vector must be byte-identical
// whether the batch ran serially or fanned across executor workers.

struct Workload {
  std::string algo;
  int nodes;
  int ppn;
  std::size_t count;
  Dtype dt;
  ReduceOp op;
  bool inplace;
  int leaders;

  std::string describe() const {
    return algo + " " + std::to_string(nodes) + "x" + std::to_string(ppn) +
           " n=" + std::to_string(count) + " " + simmpi::dtype_name(dt) +
           " " + simmpi::op_name(op) + (inplace ? " inplace" : "") +
           " l=" + std::to_string(leaders);
  }
};

Workload random_workload(std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  const auto algos =
      coll::CollRegistry::instance().names(coll::CollKind::allreduce);
  const Dtype dtypes[] = {Dtype::f32, Dtype::f64, Dtype::i32, Dtype::i64,
                          Dtype::u8};
  Workload w;
  w.algo = algos[rng.next_below(algos.size())];
  w.nodes = static_cast<int>(2 + rng.next_below(3));
  w.ppn = static_cast<int>(1 + rng.next_below(4));
  const auto& d = coll::CollRegistry::instance().at(coll::CollKind::allreduce,
                                                    w.algo);
  while (w.nodes * w.ppn < d.caps.min_comm_size) ++w.ppn;
  w.count = 1 + rng.next_below(1200);
  w.dt = dtypes[rng.next_below(std::size(dtypes))];
  switch (rng.next_below(5)) {
    case 0: w.op = ReduceOp::sum; break;
    case 1: w.op = ReduceOp::min; break;
    case 2: w.op = ReduceOp::max; break;
    case 3:
      w.op = ReduceOp::prod;
      w.count = 1 + rng.next_below(63);  // keep products representable
      break;
    default:
      w.op = (w.dt == Dtype::f32 || w.dt == Dtype::f64) ? ReduceOp::sum
                                                        : ReduceOp::bor;
      break;
  }
  w.inplace = rng.next_below(2) == 1;
  w.leaders = static_cast<int>(1 + rng.next_below(8));
  return w;
}

struct WorkloadDigest {
  std::uint64_t data_hash = 0;
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  bool exact = false;  // every rank's buffer equals the serial reference
};

std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::byte>& bytes) {
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

WorkloadDigest run_workload(const Workload& w, std::uint64_t seed) {
  const net::ClusterConfig cfg = net::test_cluster(w.nodes);
  simmpi::RunOptions ropt;
  ropt.with_data = true;
  ropt.seed = seed;
  ropt.check_level = check::CheckLevel::strict;
  simmpi::Machine m(cfg, w.nodes, w.ppn, ropt);

  coll::CollSpec spec;
  spec.algo = w.algo;
  spec.leaders = w.leaders;
  std::optional<sharp::SharpFabric> fabric;
  attach_fabric(m, CollKind::allreduce, spec, fabric);

  const int world = w.nodes * w.ppn;
  const std::size_t esize = simmpi::dtype_size(w.dt);
  std::vector<std::vector<std::byte>> sendb(static_cast<std::size_t>(world));
  std::vector<std::vector<std::byte>> recvb(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    const auto i = static_cast<std::size_t>(r);
    auto operand = simmpi::make_operand(w.dt, w.count, r, w.op, seed);
    if (w.inplace) {
      recvb[i] = std::move(operand);  // recv holds the input (MPI_IN_PLACE)
    } else {
      sendb[i] = std::move(operand);
      recvb[i].resize(w.count * esize);
    }
  }

  m.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
    const auto i = static_cast<std::size_t>(r.world_rank());
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = w.count;
    a.dt = w.dt;
    a.op = w.op;
    a.inplace = w.inplace;
    if (!w.inplace) a.send = sendb[i];
    a.recv = recvb[i];
    co_await core::run_collective(coll::CollKind::allreduce, a, spec);
  });

  const auto ref = simmpi::reference_allreduce(w.dt, w.count, world, w.op,
                                               seed);
  WorkloadDigest dg;
  dg.exact = true;
  dg.data_hash = 1469598103934665603ull;  // FNV offset basis
  for (int r = 0; r < world; ++r) {
    const auto& buf = recvb[static_cast<std::size_t>(r)];
    dg.exact = dg.exact && buf == ref;
    dg.data_hash = fnv1a(dg.data_hash, buf);
  }
  dg.events = m.engine().events_processed();
  dg.end_time = m.engine().now();
  return dg;
}

TEST(ExecutorProperty, RandomWorkloadsByteIdenticalAcrossJobCounts) {
  constexpr std::size_t kBatch = 24;
  const auto digest_all = [&](int jobs) {
    return Executor(jobs).map<WorkloadDigest>(kBatch, [](std::size_t i) {
      const std::uint64_t seed = 1000 + i;
      return run_workload(random_workload(seed), seed);
    });
  };
  const std::vector<WorkloadDigest> serial = digest_all(1);
  const std::vector<WorkloadDigest> wide = digest_all(4);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < kBatch; ++i) {
    const std::string what =
        "seed " + std::to_string(1000 + i) + ": " +
        random_workload(1000 + i).describe();
    EXPECT_TRUE(serial[i].exact) << what;
    EXPECT_EQ(serial[i].data_hash, wide[i].data_hash) << what;
    EXPECT_EQ(serial[i].events, wide[i].events) << what;
    EXPECT_EQ(serial[i].end_time, wide[i].end_time) << what;
    EXPECT_EQ(serial[i].exact, wide[i].exact) << what;
  }
}

// ---------------------------------------------------------------------------
// Randomized multi-tenant workloads (docs/MODEL.md §11-§12): seeded random
// (job mix, placement policy, background load, adaptive on/off)
// combinations must digest byte-identically across reruns and sweep-executor
// widths — the determinism contract extended over the tenant + adapt layers.

struct TenantWorkload {
  std::vector<tenant::JobSpec> jobs;
  tenant::TenantOptions opt;
  std::string desc;
};

TenantWorkload random_tenant_workload(std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  // Sub-communicator-safe patterns only (world_only designs cannot run on a
  // tenant slice).
  struct Pick {
    coll::CollKind kind;
    const char* algo;
  };
  static const Pick kPicks[] = {
      {coll::CollKind::allreduce, "ring"},
      {coll::CollKind::allreduce, "rsa"},
      {coll::CollKind::allreduce, "cring"},
      {coll::CollKind::allgather, "ring"},
      {coll::CollKind::reduce_scatter, "ring"},
      {coll::CollKind::bcast, "binomial"},
      {coll::CollKind::alltoall, "auto"},
  };
  static const tenant::Placement kPlacements[] = {
      tenant::Placement::block, tenant::Placement::round_robin,
      tenant::Placement::random};
  static const double kLoads[] = {0.0, 0.2, 0.4};

  TenantWorkload w;
  const int njobs = static_cast<int>(2 + rng.next_below(2));  // 2..3
  int budget = 8;
  for (int j = 0; j < njobs; ++j) {
    const Pick& p = kPicks[rng.next_below(std::size(kPicks))];
    tenant::JobSpec s;
    s.name = "j" + std::to_string(j);
    s.kind = p.kind;
    s.algo = p.algo;
    // Leave 2 nodes for every job still to be drawn.
    const int max_nodes = budget - 2 * (njobs - 1 - j);
    s.nodes = static_cast<int>(
        2 + rng.next_below(static_cast<std::uint64_t>(
                std::max(1, max_nodes - 1))));
    budget -= s.nodes;
    s.bytes = std::size_t{4096} << rng.next_below(4);  // 4K..32K
    s.leaders = p.algo == std::string("cring")
                    ? static_cast<int>(2 + rng.next_below(3))
                    : 1;
    s.iterations = 2;
    w.jobs.push_back(std::move(s));
  }
  w.opt.seed = seed;
  w.opt.placement = kPlacements[rng.next_below(std::size(kPlacements))];
  const double load = kLoads[rng.next_below(std::size(kLoads))];
  if (load > 0.0) {
    tenant::TrafficSpec t;
    t.matrix = tenant::Matrix::uniform;
    t.load = load;
    t.bytes = 32768;
    t.seed = seed;
    w.opt.traffic = t;
  }
  w.opt.adapt = rng.next_below(2) == 1;  // both modes covered across seeds
  w.desc = std::to_string(njobs) + " jobs, placement " +
           tenant::placement_name(w.opt.placement) + ", load " +
           std::to_string(load) + (w.opt.adapt ? ", adaptive" : ", static");
  return w;
}

std::uint64_t tenant_digest(const tenant::TenantResult& r) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_d = [&](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  const auto mix_s = [&](const std::string& s) {
    for (char c : s) mix(static_cast<std::uint64_t>(c));
  };
  mix_d(r.makespan_us);
  mix(r.events);
  mix(r.flows);
  mix(r.bg_flows);
  mix(static_cast<std::uint64_t>(r.shared_links));
  mix_s(r.hot_link);
  mix_s(r.adapt_table);
  for (const tenant::JobStats& j : r.jobs) {
    mix_d(j.start_us);
    mix_d(j.makespan_us);
    mix_d(j.solo_us);
    mix_d(j.stall_us);
    mix_s(j.final_algo);
    mix(static_cast<std::uint64_t>(j.final_leaders));
    mix(static_cast<std::uint64_t>(j.replans));
    mix(static_cast<std::uint64_t>(j.max_level));
  }
  return h;
}

TEST(AdaptTenantProperty, RandomMixesByteIdenticalAcrossRerunsAndWidths) {
  const net::ClusterConfig cfg = net::test_cluster(8);
  bool saw_adapt = false;
  bool saw_static = false;
  for (std::uint64_t seed = 2000; seed < 2012; ++seed) {
    TenantWorkload w = random_tenant_workload(seed);
    saw_adapt = saw_adapt || w.opt.adapt;
    saw_static = saw_static || !w.opt.adapt;
    const std::string what = "seed " + std::to_string(seed) + ": " + w.desc;
    w.opt.jobs = 1;
    const std::uint64_t serial =
        tenant_digest(tenant::run_tenants(cfg, 2, w.jobs, w.opt));
    const std::uint64_t rerun =
        tenant_digest(tenant::run_tenants(cfg, 2, w.jobs, w.opt));
    EXPECT_EQ(serial, rerun) << what;
    w.opt.jobs = 4;
    const std::uint64_t wide =
        tenant_digest(tenant::run_tenants(cfg, 2, w.jobs, w.opt));
    EXPECT_EQ(serial, wide) << what;
  }
  // The seeded draw must exercise both selection modes.
  EXPECT_TRUE(saw_adapt);
  EXPECT_TRUE(saw_static);
}

}  // namespace
}  // namespace dpml::core
