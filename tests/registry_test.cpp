// Collective registry: descriptor listing, dispatch-time validation, exact
// equivalence of the registry path with direct algorithm invocation, the
// generic tuner, op-qualified selection tables, and data-mode verification
// across all four collective kinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "adapt/adapt.hpp"
#include "coll/alltoall.hpp"
#include "coll/bcast.hpp"
#include "coll/reduce.hpp"
#include "coll/registry.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "sharp/sharp.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/verify.hpp"

namespace dpml {
namespace {

using coll::CollKind;
using coll::CollRegistry;
using coll::CollSpec;
using simmpi::Machine;
using simmpi::Rank;

bool has_name(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

// ---------------------------------------------------------------------------
// Registry contents

TEST(Registry, ListsEveryEnumEraAllreduceAlgorithm) {
  const auto names = CollRegistry::instance().names(CollKind::allreduce);
  for (const char* n :
       {"rd", "rsa", "ring", "cring", "binomial", "gather-bcast",
        "single-leader", "dpml", "sharp-node-leader", "sharp-socket-leader",
        "mvapich2", "intelmpi", "dpml-auto"}) {
    EXPECT_TRUE(has_name(names, n)) << "missing allreduce algorithm " << n;
  }
  EXPECT_EQ(names.size(), 13u);
}

TEST(Registry, ListsOtherCollectiveKinds) {
  const auto reduce = CollRegistry::instance().names(CollKind::reduce);
  for (const char* n :
       {"binomial", "rsa-gather", "single-leader", "dpml", "auto"}) {
    EXPECT_TRUE(has_name(reduce, n)) << "missing reduce algorithm " << n;
  }
  const auto bcast = CollRegistry::instance().names(CollKind::bcast);
  for (const char* n :
       {"binomial", "scatter-allgather", "single-leader", "auto"}) {
    EXPECT_TRUE(has_name(bcast, n)) << "missing bcast algorithm " << n;
  }
  const auto alltoall = CollRegistry::instance().names(CollKind::alltoall);
  for (const char* n : {"bruck", "pairwise", "auto"}) {
    EXPECT_TRUE(has_name(alltoall, n)) << "missing alltoall algorithm " << n;
  }
}

TEST(Registry, CapabilityFlagsMatchAlgorithmProperties) {
  const auto& reg = CollRegistry::instance();
  EXPECT_TRUE(reg.at(CollKind::allreduce, "dpml").caps.uses_leaders);
  EXPECT_TRUE(reg.at(CollKind::allreduce, "dpml").caps.supports_pipelining);
  EXPECT_TRUE(reg.at(CollKind::allreduce, "sharp-node-leader").caps.needs_fabric);
  EXPECT_EQ(reg.at(CollKind::allreduce, "sharp-node-leader").caps.max_tune_bytes,
            4096u);
  EXPECT_FALSE(reg.at(CollKind::allreduce, "rd").caps.needs_fabric);
  EXPECT_FALSE(reg.at(CollKind::allreduce, "rd").caps.tunable);
  EXPECT_TRUE(reg.at(CollKind::reduce, "dpml").caps.uses_leaders);
  // reduce_dpml has no pipelined inter-node phase.
  EXPECT_FALSE(reg.at(CollKind::reduce, "dpml").caps.supports_pipelining);
}

TEST(Registry, UnknownNameErrorListsRegisteredNames) {
  try {
    CollRegistry::instance().at(CollKind::allreduce, "bogus");
    FAIL() << "expected InvariantError";
  } catch (const util::InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("allreduce"), std::string::npos);
    EXPECT_NE(what.find("dpml"), std::string::npos);
    EXPECT_NE(what.find("rd"), std::string::npos);
  }
}

TEST(Registry, AlgorithmByNameErrorListsValidNames) {
  try {
    CollRegistry::instance().at(CollKind::allreduce, "not-an-algo");
    FAIL() << "expected InvariantError";
  } catch (const util::InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not-an-algo"), std::string::npos);
    EXPECT_NE(what.find("dpml-auto"), std::string::npos);
    EXPECT_NE(what.find("sharp-socket-leader"), std::string::npos);
  }
}

TEST(Registry, RejectsDuplicateRegistration) {
  coll::CollDescriptor d;
  d.name = "dpml";  // already registered for allreduce
  d.kind = CollKind::allreduce;
  d.make = [](coll::CollArgs, const CollSpec&) { return sim::CoTask<void>{}; };
  EXPECT_THROW(CollRegistry::instance().add(d), util::InvariantError);
}

TEST(Registry, GatherScatterReduceScatterRejectInPlace) {
  // recv holds the root's p blocks (gather) or one block (scatter,
  // reduce_scatter), and alltoall's send and recv both hold p blocks, so
  // none of these kinds has an MPI_IN_PLACE form here.
  for (CollKind kind : {CollKind::gather, CollKind::scatter,
                        CollKind::reduce_scatter, CollKind::alltoall}) {
    for (const coll::CollDescriptor* d : CollRegistry::instance().list(kind)) {
      simmpi::RunOptions opt;
      opt.with_data = false;
      Machine m(net::test_cluster(2), 2, 2, opt);
      CollSpec spec;
      spec.algo = d->name;
      auto run = [&] {
        m.run([&](Rank& r) -> sim::CoTask<void> {
          coll::CollArgs a;
          a.rank = &r;
          a.comm = &m.world();
          a.count = 16;
          a.inplace = true;
          co_await core::run_collective(kind, a, spec);
        });
      };
      EXPECT_THROW(run(), util::InvariantError)
          << coll::coll_kind_name(kind) << "/" << d->name;
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence: the registry path must charge exactly the same simulated
// time as invoking the src/coll coroutine directly.

sim::Time direct_allreduce_time(const std::string& name, int leaders, int k) {
  simmpi::RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(4), 4, 4, opt);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = 4096;
    a.inplace = true;
    if (name == "rd") {
      co_await coll::allreduce_recursive_doubling(a);
    } else if (name == "rsa") {
      co_await coll::allreduce_reduce_scatter_allgather(a);
    } else if (name == "ring") {
      co_await coll::allreduce_ring_channels(a, 1);
    } else if (name == "binomial") {
      co_await coll::allreduce_binomial(a);
    } else if (name == "gather-bcast") {
      co_await coll::allreduce_gather_bcast(a);
    } else if (name == "single-leader") {
      co_await coll::allreduce_single_leader(a, coll::InterAlgo::automatic);
    } else if (name == "dpml") {
      coll::CollSpec spec;
      spec.leaders = leaders;
      spec.pipeline_k = k;
      co_await coll::allreduce_dpml(a, spec);
    } else if (name == "mvapich2") {
      co_await coll::allreduce_mvapich2(a);
    } else if (name == "intelmpi") {
      co_await coll::allreduce_intelmpi(a);
    }
  });
  return m.now();
}

sim::Time registry_allreduce_time(const std::string& name, int leaders,
                                  int k) {
  simmpi::RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(4), 4, 4, opt);
  CollSpec spec;
  spec.algo = name;
  spec.leaders = leaders;
  spec.pipeline_k = k;
  m.run([&](Rank& r) -> sim::CoTask<void> {
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = 4096;
    a.inplace = true;
    co_await core::run_collective(CollKind::allreduce, a, spec);
  });
  return m.now();
}

TEST(Equivalence, RegistryPathMatchesDirectInvocationExactly) {
  struct Case {
    const char* name;
    int leaders;
    int k;
  };
  const Case cases[] = {
      {"rd", 1, 1},
      {"rsa", 1, 1},
      {"ring", 1, 1},
      {"binomial", 1, 1},
      {"gather-bcast", 1, 1},
      {"single-leader", 1, 1},
      {"dpml", 2, 1},
      {"dpml", 4, 2},
      {"mvapich2", 1, 1},
      {"intelmpi", 1, 1},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(direct_allreduce_time(c.name, c.leaders, c.k),
              registry_allreduce_time(c.name, c.leaders, c.k))
        << c.name << " l=" << c.leaders << " k=" << c.k;
  }
}

TEST(Equivalence, RunAllreduceShimMatchesGenericEntry) {
  // dpml-auto dispatched by name is bit-identical to the spec it resolves
  // to on a 4x4 machine with no SharpFabric attached: dpml with one leader
  // up to 1 KiB, four up to 8 KiB, then eight clamped to ppn = 4.
  struct Case {
    std::size_t count;  // f32 elements
    int leaders;
  };
  for (const Case c : {Case{64, 1}, Case{1024, 4}, Case{4096, 4}}) {
    auto run = [&](const char* algo, int leaders) {
      simmpi::RunOptions opt;
      opt.with_data = false;
      Machine m(net::test_cluster(4), 4, 4, opt);
      CollSpec spec;
      spec.algo = algo;
      spec.leaders = leaders;
      m.run([&](Rank& r) -> sim::CoTask<void> {
        coll::CollArgs a;
        a.rank = &r;
        a.comm = &m.world();
        a.count = c.count;
        a.inplace = true;
        co_await core::run_collective(CollKind::allreduce, a, spec);
      });
      return m.now();
    };
    EXPECT_EQ(run("dpml-auto", 2), run("dpml", c.leaders)) << c.count;
  }
}

TEST(Equivalence, ReduceBcastAlltoallMatchDirectInvocation) {
  auto generic_time = [](CollKind kind, const char* name) {
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(net::test_cluster(4), 4, 4, opt);
    CollSpec spec;
    spec.algo = name;
    spec.leaders = 2;
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 2048;
      a.inplace = coll::contract_of(kind).in_place != coll::InPlace::no;
      co_await core::run_collective(kind, a, spec);
    });
    return m.now();
  };

  {
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(net::test_cluster(4), 4, 4, opt);
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 2048;
      a.inplace = true;
      coll::CollSpec spec;
      spec.leaders = 2;
      co_await coll::reduce_dpml(a, spec);
    });
    EXPECT_EQ(m.now(), generic_time(CollKind::reduce, "dpml"));
  }
  {
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(net::test_cluster(4), 4, 4, opt);
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 2048 * 4;
      a.dt = simmpi::Dtype::u8;
      co_await coll::bcast_scatter_allgather(a);
    });
    EXPECT_EQ(m.now(), generic_time(CollKind::bcast, "scatter-allgather"));
  }
  {
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(net::test_cluster(4), 4, 4, opt);
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 2048 * 4;
      a.dt = simmpi::Dtype::u8;
      co_await coll::alltoall_pairwise(a);
    });
    EXPECT_EQ(m.now(), generic_time(CollKind::alltoall, "pairwise"));
  }
}

TEST(Equivalence, RingIsCringsOneChannelPath) {
  // `ring` is cring's one-channel path: the same simulated time and the
  // same engine events on every shape and size.
  struct Shape {
    const char* cluster;
    int nodes;
    int ppn;
  };
  const Shape shapes[] = {
      {"C", 5, 3}, {"test", 4, 4}, {"D", 7, 4}, {"A", 3, 5}};
  for (const Shape& s : shapes) {
    for (std::size_t bytes = 4; bytes <= (std::size_t{4} << 20); bytes *= 16) {
      const auto run = [&](const char* algo) {
        CollSpec spec;
        spec.algo = algo;
        spec.leaders = 1;
        core::MeasureOptions opt;
        opt.iterations = 2;
        opt.warmup = 1;
        return core::measure_collective(CollKind::allreduce,
                                        net::cluster_by_name(s.cluster),
                                        s.nodes, s.ppn, bytes, spec, opt);
      };
      const core::MeasureResult ring = run("ring");
      const core::MeasureResult cring = run("cring");
      EXPECT_EQ(ring.avg_us, cring.avg_us)
          << s.cluster << " " << s.nodes << "x" << s.ppn << " " << bytes;
      EXPECT_EQ(ring.events, cring.events)
          << s.cluster << " " << s.nodes << "x" << s.ppn << " " << bytes;
    }
  }
}

TEST(Equivalence, TracingAttributionDoesNotChangeSimulatedTime) {
  auto run = [](bool trace) {
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(net::test_cluster(4), 4, 4, opt);
    if (trace) m.enable_trace();
    CollSpec spec;
    spec.algo = "dpml";
    spec.leaders = 2;
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 4096;
      a.inplace = true;
      co_await core::run_collective(CollKind::allreduce, a, spec);
    });
    if (trace) {
      // Every rank's participation is attributed with kind + label.
      const auto& stats = m.collective_stats();
      auto it = stats.find("allreduce/dpml(l=2)");
      EXPECT_NE(it, stats.end());
      if (it != stats.end()) {
        EXPECT_EQ(it->second.ops, 16u);
        EXPECT_GT(it->second.rank_time, 0);
      }
      bool found_span = false;
      for (const auto& s : m.tracer().spans()) {
        if (s.category == "allreduce" && s.name == "dpml(l=2)") {
          found_span = true;
          break;
        }
      }
      EXPECT_TRUE(found_span);
    }
    return m.now();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Dispatch-entry validation

TEST(Validation, RejectsBadSpecsBeforeTheCoroutineStarts) {
  simmpi::RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(2), 2, 2, opt);
  coll::CollArgs a;
  a.rank = &m.rank(0);
  a.comm = &m.world();
  a.count = 16;
  a.inplace = true;

  CollSpec bad_leaders;
  bad_leaders.algo = "dpml";
  bad_leaders.leaders = 0;
  EXPECT_THROW(core::run_collective(CollKind::allreduce, a, bad_leaders),
               util::InvariantError);

  CollSpec bad_k;
  bad_k.algo = "dpml";
  bad_k.pipeline_k = 0;
  EXPECT_THROW(core::run_collective(CollKind::allreduce, a, bad_k),
               util::InvariantError);

  CollSpec no_fabric;
  no_fabric.algo = "sharp-node-leader";
  EXPECT_THROW(core::run_collective(CollKind::allreduce, a, no_fabric),
               util::InvariantError);

  CollSpec unknown;
  unknown.algo = "definitely-not-registered";
  EXPECT_THROW(core::run_collective(CollKind::allreduce, a, unknown),
               util::InvariantError);

  coll::CollArgs bad_root = a;
  bad_root.root = 99;
  CollSpec reduce_spec;
  reduce_spec.algo = "binomial";
  EXPECT_THROW(core::run_collective(CollKind::reduce, bad_root, reduce_spec),
               util::InvariantError);
}

TEST(Validation, LeadersClampToPpn) {
  auto run = [](int leaders) {
    simmpi::RunOptions opt;
    opt.with_data = false;
    Machine m(net::test_cluster(4), 4, 2, opt);
    CollSpec spec;
    spec.algo = "dpml";
    spec.leaders = leaders;
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 1024;
      a.inplace = true;
      co_await core::run_collective(CollKind::allreduce, a, spec);
    });
    return m.now();
  };
  // leaders=16 on ppn=2 clamps (with a warning) to the leaders=2 schedule.
  EXPECT_EQ(run(16), run(2));
}

// ---------------------------------------------------------------------------
// Selection tables: legacy and op-qualified entries

TEST(SelectionRegistry, LegacyAllreduceTablesParseUnchanged) {
  const std::string legacy =
      "# tuned on cluster B\n"
      "<=2048   sharp-socket-leader\n"
      "<=8192   dpml 4\n"
      "<=65536  dpml 8\n"
      "*        dpml 16 4\n";
  const auto t = adapt::AdaptiveTable::parse(legacy);
  ASSERT_EQ(t.entries().size(), 4u);
  for (const auto& e : t.entries()) {
    EXPECT_EQ(e.kind, CollKind::allreduce);
    EXPECT_EQ(e.level, 0);
  }
  EXPECT_EQ(t.level0(CollKind::allreduce, 100).algo, "sharp-socket-leader");
  EXPECT_EQ(t.level0(CollKind::allreduce, 5000).leaders, 4);
  EXPECT_EQ(t.level0(CollKind::allreduce, 1 << 20).pipeline_k, 4);
}

TEST(SelectionRegistry, OpQualifiedTablesRoundTrip) {
  const std::string text =
      "<=8192   dpml 4 1\n"
      "*        dpml 16 4\n"
      "reduce <=65536 binomial\n"
      "reduce *       dpml 8 1\n"
      "bcast  <=8192  binomial\n"
      "bcast  *       scatter-allgather\n"
      "alltoall *     pairwise\n";
  const auto t = adapt::AdaptiveTable::parse(text);
  ASSERT_EQ(t.entries().size(), 7u);
  EXPECT_NE(t.select(CollKind::reduce, 0, 0), nullptr);
  EXPECT_NE(t.select(CollKind::alltoall, 0, 0), nullptr);
  EXPECT_EQ(t.level0(CollKind::reduce, 1024).algo, "binomial");
  EXPECT_EQ(t.level0(CollKind::reduce, 1 << 20).algo, "dpml");
  EXPECT_EQ(t.level0(CollKind::reduce, 1 << 20).leaders, 8);
  EXPECT_EQ(t.level0(CollKind::bcast, 1 << 20).algo, "scatter-allgather");
  EXPECT_EQ(t.level0(CollKind::alltoall, 64).algo, "pairwise");
  EXPECT_EQ(t.level0(CollKind::allreduce, 4096).algo, "dpml");

  // Serialize -> parse -> serialize is a fixed point.
  const std::string once = t.serialize();
  const auto t2 = adapt::AdaptiveTable::parse(once);
  EXPECT_EQ(t2.serialize(), once);
  ASSERT_EQ(t2.entries().size(), t.entries().size());
  EXPECT_EQ(t2.level0(CollKind::reduce, 1 << 20).leaders, 8);
}

TEST(SelectionRegistry, PerKindValidation) {
  using adapt::AdaptiveTable;
  // Missing catch-all for the reduce entries.
  EXPECT_THROW(AdaptiveTable::parse("* dpml 4 1\nreduce <=100 binomial\n"),
               util::InvariantError);
  // Descending thresholds within a kind.
  EXPECT_THROW(AdaptiveTable::parse(
                   "reduce <=200 binomial\nreduce <=100 binomial\n"
                   "reduce * dpml 8 1\n* dpml 4 1\n"),
               util::InvariantError);
  // Unknown algorithm for the qualified kind, even if valid for another.
  EXPECT_THROW(AdaptiveTable::parse("bcast * rd\n"), util::InvariantError);
  // Dispatching a kind the table has no entries for fails naming the kind.
  const auto t = AdaptiveTable::parse("* dpml 4 1\n");
  simmpi::RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(2), 2, 2, opt);
  try {
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 16;
      a.inplace = true;
      co_await adapt::run_collective(CollKind::bcast, a, t);
    });
    FAIL() << "expected InvariantError";
  } catch (const util::InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no entries for bcast"), std::string::npos) << what;
  }
}

TEST(SelectionRegistry, TableDispatchRunsNonAllreduceKinds) {
  const auto t = adapt::AdaptiveTable::parse(
      "* dpml 2 1\nbcast <=1024 binomial\nbcast * scatter-allgather\n");
  simmpi::RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(2), 2, 4, opt);
  m.run([&](Rank& r) -> sim::CoTask<void> {
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = 4096;  // 16KB -> scatter-allgather entry
    a.inplace = true;
    co_await adapt::run_collective(CollKind::bcast, a, t);
  });
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Generic tuner

TEST(TunerRegistry, RegistryCandidatesCoverReduceDesigns) {
  const auto cands =
      core::registry_candidates(CollKind::reduce, 4, false, 256 * 1024);
  bool has_binomial = false, has_rsa = false, has_single = false;
  int dpml_variants = 0;
  for (const auto& c : cands) {
    if (c.algo == "binomial") has_binomial = true;
    if (c.algo == "rsa-gather") has_rsa = true;
    if (c.algo == "single-leader") has_single = true;
    if (c.algo == "dpml") ++dpml_variants;
  }
  EXPECT_TRUE(has_binomial);
  EXPECT_TRUE(has_rsa);
  EXPECT_TRUE(has_single);
  // Leader sweep {1,2,4,8,16} clamped to ppn=4 -> {1,2,4}; reduce-dpml has
  // no pipelined variants.
  EXPECT_EQ(dpml_variants, 3);
}

TEST(TunerRegistry, AllreduceCandidatesMatchLegacyDefaultCandidates) {
  // The paper's sweep (§6.4), spelled out: DPML with 1..16 leaders, the
  // pipelined variants while the per-leader partition is >= 64 KiB, then
  // both SHArP designs when the message fits their tuning range.
  struct Cand {
    const char* algo;
    int leaders;
    int k;
  };
  const std::vector<Cand> small = {
      {"dpml", 1, 1}, {"dpml", 2, 1}, {"dpml", 4, 1},
      {"dpml", 8, 1}, {"dpml", 16, 1}, {"sharp-node-leader", 4, 1},
      {"sharp-socket-leader", 4, 1}};
  const std::vector<Cand> large = {
      {"dpml", 1, 1}, {"dpml", 1, 2}, {"dpml", 1, 4}, {"dpml", 1, 8},
      {"dpml", 2, 1}, {"dpml", 2, 2}, {"dpml", 2, 4}, {"dpml", 2, 8},
      {"dpml", 4, 1}, {"dpml", 4, 2}, {"dpml", 4, 4}, {"dpml", 4, 8},
      {"dpml", 8, 1}, {"dpml", 8, 2}, {"dpml", 8, 4}, {"dpml", 8, 8},
      {"dpml", 16, 1}};
  for (const auto& [bytes, want] :
       {std::pair{512ul, small}, std::pair{512ul * 1024ul, large}}) {
    const auto got =
        core::registry_candidates(CollKind::allreduce, 28, true, bytes);
    ASSERT_EQ(got.size(), want.size()) << bytes;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].algo, want[i].algo) << bytes << " #" << i;
      EXPECT_EQ(got[i].leaders, want[i].leaders) << bytes << " #" << i;
      EXPECT_EQ(got[i].pipeline_k, want[i].k) << bytes << " #" << i;
    }
  }
}

TEST(TunerRegistry, TuneCollectivePicksAReduceWinner) {
  core::MeasureOptions opt;
  opt.iterations = 1;
  opt.warmup = 1;
  const auto r = core::tune_collective(CollKind::reduce, net::test_cluster(2),
                                       2, 2, 8192, opt);
  ASSERT_FALSE(r.all.empty());
  EXPECT_EQ(r.best.avg_us, r.all.front().avg_us);
  for (std::size_t i = 1; i < r.all.size(); ++i) {
    EXPECT_LE(r.all[i - 1].avg_us, r.all[i].avg_us);
  }
}

// ---------------------------------------------------------------------------
// The per-kind buffer contract, stated here independently of the library:
// every design validates its buffers at entry.

TEST(BufferContract, EveryDesignRejectsAWrongSizedBuffer) {
  // Extents in blocks of `count` elements; kP stands for p blocks and 0
  // for no buffer (bcast's send). Scatter's send and gather's recv matter
  // at the root only, but every rank may pass them.
  constexpr std::size_t kP = ~std::size_t{0};
  struct Shape {
    CollKind kind;
    std::size_t send_blocks;
    std::size_t recv_blocks;
  };
  const Shape shapes[] = {
      {CollKind::allreduce, 1, 1},  {CollKind::reduce, 1, 1},
      {CollKind::bcast, 0, 1},      {CollKind::alltoall, kP, kP},
      {CollKind::allgather, 1, kP}, {CollKind::reduce_scatter, kP, 1},
      {CollKind::gather, 1, kP},    {CollKind::scatter, kP, 1},
  };
  const std::size_t count = 16;
  const std::size_t esize = sizeof(float);
  for (const Shape& sh : shapes) {
    for (const coll::CollDescriptor* d :
         CollRegistry::instance().list(sh.kind)) {
      for (const bool grow_send : {true, false}) {
        if (grow_send && sh.send_blocks == 0) continue;
        simmpi::RunOptions opt;
        opt.with_data = true;
        Machine m(net::test_cluster(2), 2, 2, opt);
        const auto p = static_cast<std::size_t>(m.world_size());
        auto extent = [&](std::size_t blocks) {
          return (blocks == kP ? p : blocks) * count * esize;
        };
        const std::size_t send_bytes =
            extent(sh.send_blocks) + (grow_send ? esize : 0);
        const std::size_t recv_bytes =
            extent(sh.recv_blocks) + (grow_send ? 0 : esize);
        std::vector<std::vector<std::byte>> sendb(p), recvb(p);
        const auto operand = [&](std::size_t bytes, std::size_t w) {
          return simmpi::make_operand(simmpi::Dtype::f32, bytes / esize,
                                      static_cast<int>(w),
                                      simmpi::ReduceOp::sum);
        };
        for (std::size_t w = 0; w < p; ++w) {
          sendb[w] = operand(send_bytes, w);
          recvb[w] = operand(recv_bytes, w);
        }
        CollSpec spec;
        spec.algo = d->name;
        spec.leaders = 2;
        std::optional<sharp::SharpFabric> fabric;
        core::attach_fabric(m, sh.kind, spec, fabric);
        auto run = [&] {
          m.run([&](Rank& r) -> sim::CoTask<void> {
            const auto w = static_cast<std::size_t>(r.world_rank());
            coll::CollArgs a;
            a.rank = &r;
            a.comm = &m.world();
            a.count = count;
            a.send = sendb[w];
            a.recv = recvb[w];
            co_await core::run_collective(sh.kind, a, spec);
          });
        };
        EXPECT_THROW(run(), util::InvariantError)
            << coll::coll_kind_name(sh.kind) << "/" << d->name << ": a "
            << (grow_send ? "send" : "recv")
            << " one element larger than its extent";
      }
    }
  }
}

// The rules that not every per-kind validator enforced before the one
// contract: an in-place call passes no send, and with payload each rank
// passes its input and its result buffer (coll::check_args).
TEST(BufferContract, EveryDesignNeedsItsInputAndResultWithPayload) {
  enum class Drop { input, result, inplace_send };
  for (CollKind kind : coll::kAllCollKinds) {
    if (kind == CollKind::barrier) continue;
    const coll::KindContract c = coll::contract_of(kind);
    for (const coll::CollDescriptor* d : CollRegistry::instance().list(kind)) {
      for (const Drop drop : {Drop::input, Drop::result, Drop::inplace_send}) {
        const bool send_in_place =
            c.in_place == coll::InPlace::recv && c.send != coll::Extent::none;
        if (drop == Drop::inplace_send && !send_in_place) continue;
        simmpi::RunOptions opt;
        opt.with_data = true;
        Machine m(net::test_cluster(2), 2, 2, opt);
        const int p = m.world_size();
        const std::size_t count = 16;
        const std::size_t block = count * sizeof(float);
        std::vector<std::vector<std::byte>> sendb(p), recvb(p);
        for (int w = 0; w < p; ++w) {
          const bool at_root = w == 0;
          auto& sb = sendb[static_cast<std::size_t>(w)];
          auto& rb = recvb[static_cast<std::size_t>(w)];
          sb.resize(coll::extent_blocks(c.send, p, at_root) * block);
          rb.resize(coll::extent_blocks(c.recv, p, at_root) * block);
          if (drop == Drop::input &&
              coll::input_blocks(kind, p, at_root) > 0) {
            (coll::input_in_recv(kind, false) ? rb : sb).clear();
          }
          if (drop == Drop::result && coll::holds_result(kind, at_root)) {
            rb.clear();
          }
        }
        CollSpec spec;
        spec.algo = d->name;
        spec.leaders = 2;
        std::optional<sharp::SharpFabric> fabric;
        core::attach_fabric(m, kind, spec, fabric);
        auto run = [&] {
          m.run([&](Rank& r) -> sim::CoTask<void> {
            const auto w = static_cast<std::size_t>(r.world_rank());
            coll::CollArgs a;
            a.rank = &r;
            a.comm = &m.world();
            a.count = count;
            a.send = sendb[w];
            a.recv = recvb[w];
            a.inplace = drop == Drop::inplace_send;
            co_await core::run_collective(kind, a, spec);
          });
        };
        EXPECT_THROW(run(), util::InvariantError)
            << coll::coll_kind_name(kind) << "/" << d->name << " drop "
            << static_cast<int>(drop);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Data-mode verification across kinds

TEST(DataMode, AllKindsVerifyBitExact) {
  core::MeasureOptions opt;
  opt.with_data = true;
  opt.iterations = 1;
  opt.warmup = 1;
  const auto cfg = net::test_cluster(4);
  struct Case {
    CollKind kind;
    const char* algo;
  };
  const Case cases[] = {
      {CollKind::allreduce, "dpml"},
      {CollKind::allreduce, "ring"},
      {CollKind::reduce, "dpml"},
      {CollKind::reduce, "rsa-gather"},
      {CollKind::bcast, "binomial"},
      {CollKind::bcast, "scatter-allgather"},
      {CollKind::alltoall, "bruck"},
      {CollKind::alltoall, "pairwise"},
  };
  for (const Case& c : cases) {
    CollSpec spec;
    spec.algo = c.algo;
    spec.leaders = 2;
    const auto r =
        core::measure_collective(c.kind, cfg, 4, 4, 4096, spec, opt);
    EXPECT_TRUE(r.verified)
        << coll::coll_kind_name(c.kind) << "/" << c.algo;
  }
}

TEST(DataMode, RootedKindsRespectNonZeroRoot) {
  core::MeasureOptions opt;
  opt.with_data = true;
  opt.iterations = 1;
  opt.warmup = 0;
  opt.root = 3;
  const auto cfg = net::test_cluster(2);
  for (const char* algo : {"binomial", "rsa-gather"}) {
    CollSpec spec;
    spec.algo = algo;
    const auto r =
        core::measure_collective(CollKind::reduce, cfg, 2, 4, 1024, spec, opt);
    EXPECT_TRUE(r.verified) << "reduce/" << algo;
  }
  CollSpec bspec;
  bspec.algo = "binomial";
  const auto rb =
      core::measure_collective(CollKind::bcast, cfg, 2, 4, 1024, bspec, opt);
  EXPECT_TRUE(rb.verified);
}

}  // namespace
}  // namespace dpml
