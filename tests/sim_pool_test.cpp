// Accounting-invariant lock for the engine slab/buffer pools (sim/pool.hpp)
// and the pooled schedule_call hot path. Runs under the ASan CI job, so a
// leaked callback record, a double free, or storage handed out twice shows
// up as a sanitizer failure on top of the counter assertions here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "sim/engine.hpp"
#include "sim/pool.hpp"
#include "util/error.hpp"

namespace dpml::sim {
namespace {

// ---------------------------------------------------------------------------
// SlabPool.

TEST(SlabPool, SteadyStateAllocationHitsTheFreeList) {
  SlabPool pool(64, /*chunks_per_slab=*/8);
  std::vector<void*> live;
  for (int i = 0; i < 8; ++i) live.push_back(pool.allocate(64));
  // Only the allocation that carved the slab is a miss; the other seven pop
  // chunks the carve put on the free list.
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 7u);
  EXPECT_EQ(pool.stats().live, 8u);
  EXPECT_GE(pool.stats().bytes_reserved, 8u * 64u);
  for (void* p : live) pool.deallocate(p, 64);
  live.clear();
  // Warm pool: every further allocation is a free-list pop.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 8; ++i) live.push_back(pool.allocate(48));
    for (void* p : live) pool.deallocate(p, 48);
    live.clear();
  }
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 807u);
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_EQ(pool.stats().peak_live, 8u);
}

TEST(SlabPool, DistinctChunksAndGrowthAcrossSlabs) {
  SlabPool pool(32, /*chunks_per_slab=*/4);
  std::vector<void*> live;
  for (int i = 0; i < 13; ++i) live.push_back(pool.allocate(32));
  // No chunk may be handed out twice while live.
  std::sort(live.begin(), live.end());
  EXPECT_EQ(std::adjacent_find(live.begin(), live.end()), live.end());
  EXPECT_EQ(pool.stats().peak_live, 13u);
  for (void* p : live) pool.deallocate(p, 32);
}

TEST(SlabPool, OversizeRequestsFallBackToOperatorNew) {
  SlabPool pool(64);
  void* big = pool.allocate(4096);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().live, 1u);
  // Oversize memory is not pooled: nothing was reserved for it.
  EXPECT_EQ(pool.stats().bytes_reserved, 0u);
  pool.deallocate(big, 4096);
  EXPECT_EQ(pool.stats().live, 0u);
}

TEST(SlabPool, FreeWithoutAllocationIsAnInvariantError) {
  SlabPool pool(64);
  // A chunk-sized heap block the pool never handed out: gcc's
  // free-nonheap-object and array-bounds analyses reject a stack object
  // here, though deallocate throws before touching it.
  const std::align_val_t align{alignof(std::max_align_t)};
  void* foreign = ::operator new(64, align);
  EXPECT_THROW(pool.deallocate(foreign, 64), util::InvariantError);
  ::operator delete(foreign, align);
}

TEST(SlabPoolDeathTest, DestructionWithLiveAllocationsAborts) {
  // A live chunk at destruction would be freed out from under its owner;
  // the destructor's DPML_CHECK throws, which terminates during unwind.
  EXPECT_DEATH(
      {
        SlabPool pool(64);
        (void)pool.allocate(64);
      },
      "live allocations");
}

// ---------------------------------------------------------------------------
// BufferPool.

TEST(BufferPool, RecyclesStorageWithinASizeClass) {
  BufferPool pool;
  std::vector<std::byte> a = pool.acquire(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(pool.stats().misses, 1u);
  const std::byte* storage = a.data();
  pool.release(std::move(a));
  EXPECT_EQ(pool.live(), 0u);
  // Same power-of-two class (65..128): the exact storage comes back.
  std::vector<std::byte> b = pool.acquire(128);
  EXPECT_EQ(b.size(), 128u);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(pool.stats().hits, 1u);
  pool.release(std::move(b));
}

TEST(BufferPool, EmptyReleaseIsIgnored) {
  // Metadata-only runs release empty spans that never hit the pool; the
  // live count must not underflow.
  BufferPool pool;
  pool.release(std::vector<std::byte>{});
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 0u);
}

TEST(BufferPool, BytesReservedTracksParkedStorageOnly) {
  BufferPool pool;
  auto buf = pool.acquire(1000);
  EXPECT_EQ(pool.stats().bytes_reserved, 0u);  // storage is out, not parked
  const std::size_t cap = buf.capacity();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.stats().bytes_reserved, cap);
  auto again = pool.acquire(1024);
  EXPECT_EQ(pool.stats().bytes_reserved, 0u);
  pool.release(std::move(again));
}

// ---------------------------------------------------------------------------
// Engine + pools: thousands of short runs through the pooled callback path.

TEST(EnginePool, ManyShortRunsReuseCallbackRecords) {
  Engine e;
  std::uint64_t fired = 0;
  for (int run = 0; run < 2000; ++run) {
    for (int i = 0; i < 5; ++i) {
      e.schedule_call(e.now() + (i + 1) * 10, [&fired] { ++fired; });
    }
    e.run();
  }
  EXPECT_EQ(fired, 10000u);
  const EnginePerf p = e.perf();
  EXPECT_EQ(p.events, 10000u);
  // The pool warms within the first run: at most the 5-deep working set of
  // records was ever carved fresh (one slab), everything else is a hit.
  EXPECT_EQ(p.callback_pool.live, 0u);
  EXPECT_LE(p.callback_pool.peak_live, 5u);
  EXPECT_EQ(p.callback_pool.hits + p.callback_pool.misses, 10000u);
  EXPECT_GT(p.callback_pool.hit_rate(), 0.97);
}

TEST(EnginePool, FreshEnginePerRunKeepsInvariants) {
  // The executor's jobs each build their own Machine/Engine; model that as
  // thousands of short-lived engines and check teardown leaves nothing live.
  for (int run = 0; run < 2000; ++run) {
    Engine e;
    int fired = 0;
    e.schedule_call(5, [&fired] { ++fired; });
    e.schedule_call(1, [&fired, &e] {
      ++fired;
      e.schedule_call(e.now() + 1, [&fired] { ++fired; });
    });
    e.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(e.perf().callback_pool.live, 0u);
    EXPECT_EQ(e.perf().payload_pool.live, 0u);
  }
}

TEST(EnginePool, QueuedCallbacksDisposedAtTeardown) {
  // An engine destroyed with scheduled-but-unfired callbacks must return
  // their records (and any captured resources) without invoking them.
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    Engine e;
    e.schedule_call(100, [token] { ADD_FAILURE() << "must never fire"; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // capture keeps it alive in the queue
  }
  EXPECT_TRUE(watch.expired());  // teardown disposed the record
}

TEST(EnginePool, OversizeCaptureFallsBackSafely) {
  // A capture bigger than the slab chunk takes the operator-new path but
  // must obey the same accounting.
  Engine e;
  struct Big {
    std::byte blob[512];
  } big{};
  bool fired = false;
  e.schedule_call(1, [big, &fired] {
    (void)big;
    fired = true;
  });
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.perf().callback_pool.live, 0u);
  EXPECT_GE(e.perf().callback_pool.misses, 1u);
}

TEST(EnginePool, StdFunctionCallablesStillPool) {
  // The old schedule_fn shim is gone: a caller holding a std::function
  // passes it straight to schedule_call, and the record still comes from
  // the pool.
  Engine e;
  int fired = 0;
  std::function<void()> cb = [&fired] { ++fired; };
  e.schedule_call(1, cb);
  e.schedule_call(2, std::move(cb));
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.perf().callback_pool.live, 0u);
}

TEST(EnginePool, ReserveEventsDoesNotDisturbCounters) {
  Engine e;
  e.reserve_events(4096);
  int fired = 0;
  for (int i = 0; i < 100; ++i) e.schedule_call(i + 1, [&fired] { ++fired; });
  const EnginePerf before = e.perf();
  EXPECT_EQ(before.callback_pool.live, 100u);
  e.run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(e.perf().peak_queue_depth, 100u);
  EXPECT_EQ(e.perf().callback_pool.live, 0u);
}

// ---------------------------------------------------------------------------
// PoolStats arithmetic used by the measure-layer aggregation.

TEST(PoolStats, MergeAndHitRate) {
  PoolStats a;
  a.note_alloc(true);
  a.note_alloc(false);
  a.note_free();
  PoolStats b;
  b.note_alloc(true);
  b.note_alloc(true);
  EXPECT_EQ(a.hit_rate(), 0.5);
  EXPECT_EQ(PoolStats{}.hit_rate(), 0.0);  // no traffic: defined as zero
  a.merge(b);
  EXPECT_EQ(a.hits, 3u);
  EXPECT_EQ(a.misses, 1u);
  EXPECT_EQ(a.live, 3u);
  EXPECT_EQ(a.hit_rate(), 0.75);
}

}  // namespace
}  // namespace dpml::sim
