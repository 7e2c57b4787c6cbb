// Stress and scale tests: thousands of coroutines, deep completion chains
// (symmetric transfer must not grow the native stack), realistic figure
// shapes in metadata mode, and long iteration sequences (slot reuse).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace dpml {
namespace {

using sim::CoTask;
using sim::Engine;
using sim::Time;

CoTask<void> ping_worker(Engine& e, sim::Barrier& b, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await e.delay(sim::ns(100));
    co_await b.arrive_and_wait();
  }
}

TEST(Stress, FourThousandCoroutinesBarrierStorm) {
  Engine e;
  const int n = 4096;
  sim::Barrier b(e, n);
  for (int i = 0; i < n; ++i) e.spawn(ping_worker(e, b, 10));
  e.run();
  EXPECT_EQ(e.live_tasks(), 0);
  EXPECT_EQ(b.generation(), 10u);
}

CoTask<void> deep_chain(Engine& e, int depth) {
  if (depth == 0) {
    co_await e.delay(1);
    co_return;
  }
  co_await deep_chain(e, depth - 1);
}

TEST(Stress, DeepCoroutineChainDoesNotOverflowStack) {
  // 50k-deep nested co_await: completion unwinds through symmetric
  // transfer, not native-stack recursion.
  Engine e;
  e.spawn(deep_chain(e, 50000));
  e.run();
  EXPECT_EQ(e.live_tasks(), 0);
}

CoTask<void> sem_hammer(Engine& e, sim::Semaphore& s, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await s.acquire();
    co_await e.delay(sim::ns(10));
    s.release();
  }
}

TEST(Stress, SemaphoreManyWaiters) {
  Engine e;
  sim::Semaphore s(e, 3);
  for (int i = 0; i < 500; ++i) e.spawn(sem_hammer(e, s, 20));
  e.run();
  EXPECT_EQ(s.available(), 3);
  EXPECT_EQ(s.waiting(), 0);
}

TEST(Stress, ManyIterationsReuseSlotsWithoutLeaks) {
  // 200 back-to-back hierarchical collectives: per-invocation slots must be
  // created and torn down each time.
  simmpi::RunOptions opt;
  opt.with_data = false;
  simmpi::Machine m(net::test_cluster(2), 2, 4, opt);
  m.run([&](simmpi::Rank& r) -> CoTask<void> {
    for (int i = 0; i < 200; ++i) {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 256;
      a.inplace = true;
      core::CollSpec spec;
      spec.algo = "dpml";
      spec.leaders = 2;
      co_await core::run_collective(core::CollKind::allreduce, a, spec);
    }
  });
  EXPECT_EQ(m.node(0).live_slots(), 0u);
  EXPECT_EQ(m.node(1).live_slots(), 0u);
}

// ---------------------------------------------------------------------------
// Figure-shape smoke tests (metadata mode, realistic scales).

TEST(ScaleSmoke, Fig5ShapeRuns) {
  // 1792 ranks (64x28), one large DPML allreduce.
  core::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 16;
  core::MeasureOptions opt;
  opt.iterations = 1;
  opt.warmup = 0;
  const auto r =
      core::measure_collective(core::CollKind::allreduce, net::cluster_b(), 64,
                               28, 512 * 1024, spec, opt);
  EXPECT_GT(r.avg_us, 100.0);
  EXPECT_LT(r.avg_us, 10000.0);
}

TEST(ScaleSmoke, Fig10ShapeRuns) {
  // 10,240 ranks (160x64) — the paper's largest experiment.
  core::CollSpec spec;
  spec.algo = "dpml-auto";
  core::MeasureOptions opt;
  opt.iterations = 1;
  opt.warmup = 0;
  const auto r =
      core::measure_collective(core::CollKind::allreduce, net::cluster_d(), 160,
                               64, 16 * 1024, spec, opt);
  EXPECT_GT(r.avg_us, 10.0);
  EXPECT_LT(r.avg_us, 5000.0);
  EXPECT_GT(r.events, 100000u);  // genuinely simulated at scale
}

TEST(ScaleSmoke, FullClusterBWidth) {
  // All 648 nodes of cluster B at ppn=1 with a flat algorithm.
  core::CollSpec spec;
  spec.algo = "rd";
  core::MeasureOptions opt;
  opt.iterations = 1;
  opt.warmup = 0;
  const auto r = core::measure_collective(
      core::CollKind::allreduce, net::cluster_b(), 648, 1, 4096, spec, opt);
  EXPECT_GT(r.avg_us, 0.0);
}

TEST(ScaleSmoke, DeterministicAtScale) {
  core::CollSpec spec;
  spec.algo = "mvapich2";
  core::MeasureOptions opt;
  opt.iterations = 1;
  opt.warmup = 0;
  const auto a = core::measure_collective(
      core::CollKind::allreduce, net::cluster_d(), 64, 64, 65536, spec, opt);
  const auto b = core::measure_collective(
      core::CollKind::allreduce, net::cluster_d(), 64, 64, 65536, spec, opt);
  EXPECT_EQ(a.avg_us, b.avg_us);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace dpml
