// Accounting-invariant lock for the engine slab/buffer pools and the
// per-thread frame pool (sim/pool.hpp), the pooled schedule_call hot path
// and the transport's pooled per-message records. Runs under the ASan CI
// job, so a leaked callback record or frame, a double free, or storage
// handed out twice shows up as a sanitizer failure on top of the counter
// assertions here.
#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/pool.hpp"
#include "sim/sync.hpp"
#include "check/check.hpp"
#include "simmpi/machine.hpp"
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
  ByteBuffer a = pool.acquire(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(pool.stats().misses, 1u);
  const std::byte* storage = a.data();
  pool.release(std::move(a));
  EXPECT_EQ(pool.live(), 0u);
  // Same power-of-two class (65..128): the exact storage comes back.
  ByteBuffer b = pool.acquire(128);
  EXPECT_EQ(b.size(), 128u);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(pool.stats().hits, 1u);
  pool.release(std::move(b));
}

TEST(BufferPool, EmptyReleaseIsIgnored) {
  // Metadata-only runs release empty spans that never hit the pool; the
  // live count must not underflow.
  BufferPool pool;
  pool.release(ByteBuffer{});
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
// FramePool: coroutine frames and per-message records.

CoTask<int> after(Engine& e, Time t, int v) {
  co_await e.delay(t);
  co_return v;
}

// A nested chain with a non-blocking sub-operation: frames of three sizes
// plus spawn_sub's pooled Flag record.
CoTask<void> chain(Engine& e, int& sum) {
  auto done = e.spawn_sub([](Engine& eng) -> CoTask<void> {
    co_await eng.delay(3);
  }(e));
  sum += co_await after(e, 2, 1);
  co_await done->wait();
}

void run_chains(Engine& e, int n, int& sum) {
  for (int i = 0; i < n; ++i) e.spawn(chain(e, sum));
  e.run();
}

TEST(FramePool, SecondIdenticalRunOnAFreshEngineHasNoMisses) {
  // An engine kept alive keeps the thread's pool warm between the runs.
  const Engine keep;
  int sum = 0;
  {
    Engine first;
    run_chains(first, 50, sum);
    EXPECT_GT(first.perf().frame_pool.misses, 0u);
  }
  Engine second;
  run_chains(second, 50, sum);
  EXPECT_EQ(sum, 100);
  const PoolStats p = second.perf().frame_pool;
  EXPECT_EQ(p.misses, 0u);
  EXPECT_GT(p.hits, 0u);
  EXPECT_EQ(p.live, 0u);
}

CoTask<int> big_frame(Engine& e) {
  // Live across the suspension, so the array sits in the frame.
  std::array<unsigned char, 4 * FramePool::kMaxPooled> buf{};
  buf[7] = 7;
  co_await e.delay(1);
  co_return buf[7];
}

TEST(FramePool, OversizeFrameFallsBackAndCountsAMiss) {
  Engine e;
  int got = 0;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t misses = e.perf().frame_pool.misses;
    e.spawn([](Engine& eng, int& out) -> CoTask<void> {
      out += co_await big_frame(eng);
    }(e, got));
    e.run();
    // Never pooled: once the small frames are warm, the big one is still a
    // miss every time.
    if (round > 0) {
      EXPECT_EQ(e.perf().frame_pool.misses, misses + 1);
    }
  }
  EXPECT_EQ(got, 21);
  FramePool& pool = FramePool::local();
  const PoolStats before = pool.stats();
  void* p = pool.allocate(FramePool::kMaxPooled + 1);
  EXPECT_EQ(pool.stats().misses, before.misses + 1);
  pool.deallocate(p, FramePool::kMaxPooled + 1);
  EXPECT_EQ(pool.stats().live, before.live);
  EXPECT_EQ(pool.stats().bytes_reserved, before.bytes_reserved);
}

TEST(FramePool, DeadlockedRunTeardownLeavesNoLiveFrames) {
  ASSERT_EQ(FramePool::local().engines(), 0);
  {
    // Checked, with payload: each blocked receive holds a buffer lease in
    // the checker, so its frame must be destroyed while the checker exists
    // (ASan reports a use after free otherwise).
    simmpi::RunOptions opt;
    opt.check_level = check::CheckLevel::basic;
    simmpi::Machine m(net::test_cluster(2), 2, 2, opt);
    std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(16));
    EXPECT_THROW(
        m.run([&](simmpi::Rank& r) -> CoTask<void> {
          // Everyone waits for a message nobody sends, some of them
          // through irecv's pooled records.
          const int me = r.world_rank();
          auto h = r.irecv(m.world(), (me + 1) % 4, 9, 8,
                           simmpi::MutBytes{bufs[me]}.first(8));
          co_await r.recv(m.world(), (me + 3) % 4, 5, 8,
                          simmpi::MutBytes{bufs[me]}.last(8));
          co_await h.done->wait();
        }),
        check::CheckError);
    EXPECT_GT(FramePool::local().stats().live, 0u);  // suspended frames
  }
  // ~Machine destroyed the suspended processes; the last engine's teardown
  // then emptied the pool.
  const PoolStats p = FramePool::local().stats();
  EXPECT_EQ(p.live, 0u);
  EXPECT_EQ(p.bytes_reserved, 0u);
  EXPECT_EQ(FramePool::local().engines(), 0);
}

TEST(FramePool, PoolEmptiesWhenTheThreadsLastEngineGoes) {
  FramePool& pool = FramePool::local();
  int sum = 0;
  {
    Engine outer;
    {
      Engine inner;
      run_chains(inner, 10, sum);
    }
    // outer is still attached: the slabs stay for reuse.
    EXPECT_GT(pool.stats().bytes_reserved, 0u);
    EXPECT_EQ(pool.engines(), 1);
  }
  EXPECT_EQ(pool.engines(), 0);
  EXPECT_EQ(pool.stats().bytes_reserved, 0u);
  EXPECT_EQ(pool.stats().live, 0u);
}

TEST(FramePool, TaskHeldPastItsEngineIsFreedSafely) {
  FramePool& pool = FramePool::local();
  CoTask<int> held;
  {
    Engine e;
    held = after(e, 5, 1);  // created, never started
  }
  // The frame outlives the engine and keeps its memory; once it is freed
  // with no engine attached, the pool gives its memory back.
  EXPECT_EQ(pool.engines(), 0);
  EXPECT_EQ(pool.stats().live, 1u);
  EXPECT_GT(pool.stats().bytes_reserved, 0u);
  held = CoTask<int>{};
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_EQ(pool.stats().bytes_reserved, 0u);
}

TEST(FramePool, DeliveryRecordsFitTheCallbackChunk) {
  // Cluster D's leaves hold two nodes and its core is oversubscribed, so
  // node 0 reaches node 1 through its leaf and nodes 2-3 across the core:
  // same-leaf eager records, the three cross-leaf hops and the rendezvous
  // payload continuation, each carrying its message. Every record fits a
  // slab chunk exactly when every callback-pool miss carved a slab.
  simmpi::Machine m(net::cluster_d(), 4, 1);
  const std::size_t big = 2 * m.config().nic.rendezvous_threshold;
  std::vector<std::vector<std::byte>> out(4, std::vector<std::byte>(big));
  const std::vector<std::byte> payload(big, std::byte{7});
  m.run([&](simmpi::Rank& r) -> CoTask<void> {
    const int me = r.world_rank();
    for (int round = 0; round < 20; ++round) {
      for (const int peer : {me ^ 1, (me + 2) % 4}) {
        const std::size_t n = round % 2 == 0 ? 512 : big;
        auto h = r.irecv(m.world(), peer, round, n,
                         simmpi::MutBytes{out[me]}.first(n));
        co_await r.send(m.world(), peer, round, n,
                        simmpi::ConstBytes{payload}.first(n));
        co_await h.done->wait();
      }
    }
  });
  EXPECT_EQ(out[2][big - 1], std::byte{7});
  const PoolStats cb = m.engine().perf().callback_pool;
  EXPECT_GT(cb.hits, 0u);
  EXPECT_EQ(cb.misses, (cb.peak_live + 255) / 256);
}

// ---------------------------------------------------------------------------
// One-wake primitives: compute, reduce_compute, shm_put, shm_get and both
// signals are awaitables, so awaiting one takes no frame from the pool.

std::uint64_t frames_served() {
  const PoolStats s = FramePool::local().stats();
  return s.hits + s.misses;
}

TEST(OneWake, PrimitivesTakeNoFrameAndChargeTheirCost) {
  simmpi::Machine m(net::test_cluster(1), 1, 1);
  const net::HostModel& host = m.config().host;
  constexpr std::size_t kBytes = 4096;
  simmpi::ShmWindow w(kBytes, m.rank(0).socket(), /*with_data=*/true);
  Flag flag(m.engine());
  Latch latch(m.engine(), 2);
  const std::vector<std::byte> src(kBytes, std::byte{5});
  std::vector<std::byte> dst(kBytes);
  std::vector<Time> at;  // the clock after each await
  std::uint64_t frames = 0;
  m.run([&](simmpi::Rank& r) -> CoTask<void> {
    const std::uint64_t before = frames_served();
    co_await r.compute(us(1.0));
    at.push_back(r.engine().now());
    co_await r.reduce_compute(kBytes);
    at.push_back(r.engine().now());
    co_await r.shm_put(w, 0, kBytes, src);
    at.push_back(r.engine().now());
    co_await r.shm_get(w, 0, kBytes, dst);
    at.push_back(r.engine().now());
    co_await r.signal(flag);
    at.push_back(r.engine().now());
    co_await r.signal(latch);
    at.push_back(r.engine().now());
    frames = frames_served() - before;
  });
  EXPECT_EQ(frames, 0u);
  EXPECT_EQ(dst, src);
  EXPECT_TRUE(flag.posted());
  EXPECT_EQ(latch.pending(), 1);
  // Each charge as the model states it (docs/MODEL.md §3): the node's
  // memory pipe is idle at each call, and the window is on the rank's
  // socket.
  ASSERT_GT(host.flag_latency, 0);
  const Time mem = transfer_time(kBytes, host.mem_agg_bw);
  const Time copy = host.copy_startup + transfer_time(kBytes, host.copy_bw);
  std::vector<Time> want;
  Time t = us(1.0);
  want.push_back(t);
  t += std::max(m.rank(0).reduce_cost(kBytes), mem);
  want.push_back(t);
  t += std::max(copy, mem);
  want.push_back(t);
  t += std::max(copy, mem);
  want.push_back(t);
  t += host.flag_latency;
  want.push_back(t);
  t += host.flag_latency;
  want.push_back(t);
  EXPECT_EQ(at, want);
  // One wake per primitive, and nothing else.
  EXPECT_EQ(m.engine().perf().events, 6u);
  EXPECT_EQ(m.engine().perf().resumes, 6u);
}

// Writes `span` through a shm_get once `ready` is posted.
CoTask<void> overwrite(simmpi::Rank& r, simmpi::ShmWindow& w,
                       simmpi::MutBytes span, Flag& ready) {
  co_await ready.wait();
  co_await r.shm_get(w, 0, span.size(), span);
}

TEST(OneWake, ShmPutLeaseSpansTheWake) {
  // A shm_put's read lease on its source lives until its awaiter goes:
  // another operation of the rank that writes the source while the put is
  // suspended is an overlap, and the same write after the wake is not.
  for (const bool during : {true, false}) {
    simmpi::RunOptions opt;
    opt.check_level = check::CheckLevel::basic;
    simmpi::Machine m(net::test_cluster(1), 1, 1, opt);
    constexpr std::size_t kBytes = 4096;
    simmpi::ShmWindow w(kBytes, m.rank(0).socket(), /*with_data=*/true);
    std::vector<std::byte> buf(kBytes, std::byte{3});
    Flag ready(m.engine());
    Time put_done = 0;
    auto run = [&] {
      m.run([&](simmpi::Rank& r) -> CoTask<void> {
        auto writer = r.engine().spawn_sub(
            overwrite(r, w, simmpi::MutBytes{buf}, ready));
        if (during) r.engine().schedule_call(1, [&ready] { ready.post(); });
        co_await r.shm_put(w, 0, kBytes, buf);
        put_done = r.engine().now();
        if (!during) ready.post();
        co_await writer->wait();
      });
    };
    if (during) {
      try {
        run();
        ADD_FAILURE() << "a write into a suspended shm_put's source passed";
      } catch (const check::CheckError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("buffer-overlap"), std::string::npos) << what;
        EXPECT_NE(what.find("shm-get buffer"), std::string::npos) << what;
        EXPECT_NE(what.find("live shm-put buffer"), std::string::npos) << what;
      }
      EXPECT_EQ(put_done, 0);  // the overlap was found while it slept
    } else {
      EXPECT_NO_THROW(run());
      EXPECT_GT(put_done, 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Free pool memory under AddressSanitizer.

// Under AddressSanitizer (the sanitizer CI leg) the pools poison what they
// hold free; in other builds nothing is poisoned and these checks reduce to
// the pools handing a freed block out again.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
bool poisoned(const void* p) { return __asan_address_is_poisoned(p) != 0; }
#else
constexpr bool kAsan = false;
bool poisoned(const void*) { return false; }
#endif

TEST(PoolPoisoning, FreeMemoryIsPoisonedUnderAddressSanitizer) {
  FramePool& frames = FramePool::local();
  ASSERT_EQ(frames.stats().bytes_reserved, 0u);
  const Engine keep;  // holds the frame pool's slab between the steps
  auto* f = static_cast<std::byte*>(frames.allocate(40));  // 48-byte class
  EXPECT_FALSE(poisoned(f));
  EXPECT_FALSE(poisoned(f + 47));
  EXPECT_EQ(poisoned(f + 48), kAsan);  // the slab's uncarved tail
  frames.deallocate(f, 40);
  EXPECT_EQ(poisoned(f), kAsan);
  EXPECT_EQ(poisoned(f + 47), kAsan);
  EXPECT_EQ(frames.allocate(40), f);
  EXPECT_FALSE(poisoned(f + 47));
  frames.deallocate(f, 40);

  SlabPool chunks(64, 4);
  auto* c = static_cast<std::byte*>(chunks.allocate(64));
  EXPECT_FALSE(poisoned(c + 63));
  EXPECT_EQ(poisoned(c + 64), kAsan);  // a chunk still on the free list
  chunks.deallocate(c, 64);
  EXPECT_EQ(poisoned(c), kAsan);
  EXPECT_EQ(chunks.allocate(64), c);
  EXPECT_FALSE(poisoned(c + 63));
  chunks.deallocate(c, 64);
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
