#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "sim/oracle.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpml::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.live_tasks(), 0);
}

TEST(Engine, SchedulesCallbacksInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_call(us(3.0), [&] { order.push_back(3); });
  e.schedule_call(us(1.0), [&] { order.push_back(1); });
  e.schedule_call(us(2.0), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), us(3.0));
}

TEST(Engine, TieBrokenBySubmissionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_call(us(5.0), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, RejectsPastEvents) {
  Engine e;
  e.schedule_call(us(1.0), [&] {
    EXPECT_THROW(e.schedule_call(0, [] {}), util::InvariantError);
  });
  e.run();
}

TEST(Engine, WrappedStdFunctionMatchesScheduleCallOrdering) {
  // std::function callables route through the same pooled schedule_call as
  // plain lambdas (the old schedule_fn shim is gone) and keep the exact
  // (t, seq) ordering semantics.
  Engine e;
  std::vector<int> order;
  std::function<void()> first = [&] { order.push_back(2); };
  std::function<void()> third = [&] { order.push_back(1); };
  e.schedule_call(us(2.0), std::move(first));
  e.schedule_call(us(2.0), [&] { order.push_back(3); });
  e.schedule_call(us(1.0), std::move(third));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Reserved seqs: an event posted later at a reserved seq fires exactly where
// the reserving batch's event would have. Each case builds its engine through
// the SchedulerKind shim constructor the benchmark driver still calls; the
// kind is ignored, so every instance runs the one event queue and must agree.
class ReservedSeqTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(ReservedSeqTest, ReservedEventsTakeTheirSeqPlaceAmongSameInstantEvents) {
  Engine e(GetParam());
  std::vector<int> order;
  e.schedule_call(us(5.0), [&] { order.push_back(0); });
  const std::uint64_t base = e.reserve_seqs(3);
  e.schedule_call(us(5.0), [&] { order.push_back(4); });
  e.schedule_call(us(900.0), [&] { order.push_back(5); });
  // Posted after the event above, yet inside the reserved block: both
  // reserved events fire before it, in seq order.
  e.schedule_call_at_seq(us(5.0), base + 2, [&] { order.push_back(3); });
  e.schedule_call_at_seq(us(5.0), base, [&] { order.push_back(1); });
  e.schedule_call(us(4.0), [&] { order.push_back(-1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 3, 4, 5}));
}

TEST_P(ReservedSeqTest, UnreservedSeqIsRejected) {
  Engine e(GetParam());
  const std::uint64_t next = e.reserve_seqs(0);
  EXPECT_THROW(e.schedule_call_at_seq(us(1.0), next, [] {}),
               util::InvariantError);
}

struct RecordingOracle : ScheduleOracle {
  std::vector<std::vector<ChoiceAlt>> calls;
  std::size_t choose(ChoiceKind, const std::vector<ChoiceAlt>& alts) override {
    calls.push_back(alts);
    return 0;
  }
  void note_wildcard_recv(int, int) override {}
  bool race_matters(int, int) override { return true; }
  void note_pruned(std::uint64_t) override {}
};

TEST_P(ReservedSeqTest, ReservedSeqsNeverAliasModelCheckingTags) {
  Engine e(GetParam());
  RecordingOracle oracle;
  e.set_oracle(&oracle);
  std::vector<int> order;
  const std::uint64_t base = e.reserve_seqs(2);
  e.schedule_call_mc(us(1.0), McChannel{0, 0, 7, 1}, [&] { order.push_back(10); });
  e.schedule_call_mc(us(1.0), McChannel{0, 0, 7, 2}, [&] { order.push_back(11); });
  e.schedule_call_at_seq(us(1.0), base + 1, [&] { order.push_back(2); });
  e.schedule_call_at_seq(us(1.0), base, [&] { order.push_back(1); });
  e.run();
  // The reserved events are untagged, so they pop canonically; the one
  // choice point offers exactly the two tagged delivers.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 11}));
  ASSERT_EQ(oracle.calls.size(), 1u);
  ASSERT_EQ(oracle.calls[0].size(), 2u);
  EXPECT_EQ(oracle.calls[0][0].src, 1);
  EXPECT_EQ(oracle.calls[0][1].src, 2);
}

TEST_P(ReservedSeqTest, HoldUntilExtendsTheDrainedClock) {
  Engine e(GetParam());
  e.hold_until(us(9.0));
  e.hold_until(us(3.0));  // never moves the hold backwards
  e.schedule_call(us(2.0), [] {});
  e.run();
  EXPECT_EQ(e.now(), us(9.0));
  EXPECT_EQ(e.events_processed(), 1u);
  e.schedule_call(us(12.0), [] {});
  e.run();
  EXPECT_EQ(e.now(), us(12.0));  // a later event outruns the hold
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ReservedSeqTest,
                         ::testing::Values(SchedulerKind::binary_heap,
                                           SchedulerKind::calendar),
                         [](const ::testing::TestParamInfo<SchedulerKind>& i) {
                           return i.param == SchedulerKind::calendar
                                      ? std::string("calendar")
                                      : std::string("heap");
                         });

// ---------------------------------------------------------------------------
// Queue-order property: a seeded script of schedule_call, coroutine delays,
// reserved seqs and pushes at now() fires in exactly the order of a
// reference priority queue over (t, seq). The script reacts to each firing
// with the same RNG draws on both sides, so any divergence in order also
// diverges the rest of the run.

// The reference: a std::set ordered by (t, seq) with the engine's seq rules
// (every push draws the next seq; reserve_seqs skips a block).
struct RefQueue {
  Time clock = 0;
  std::uint64_t seq = 0;
  std::set<std::tuple<Time, std::uint64_t, int>> q;
  std::function<void(int)> fire;

  Time now() const { return clock; }
  void call(Time t, int id) { q.emplace(t, seq++, id); }
  void delay_until(Time t, int id) { call(t, id); }
  std::uint64_t reserve(std::uint64_t n) {
    const std::uint64_t base = seq;
    seq += n;
    return base;
  }
  void call_at_seq(Time t, std::uint64_t s, int id) { q.emplace(t, s, id); }
  void run() {
    while (!q.empty()) {
      const auto [t, s, id] = *q.begin();
      q.erase(q.begin());
      clock = t;
      fire(id);
    }
  }
};

struct EngineQueue;
CoTask<void> wake_at(EngineQueue& q, Time t, int id);

struct EngineQueue {
  Engine e;
  std::function<void(int)> fire;

  Time now() const { return e.now(); }
  void call(Time t, int id) {
    e.schedule_call(t, [this, id] { fire(id); });
  }
  void delay_until(Time t, int id) { e.spawn(wake_at(*this, t, id)); }
  std::uint64_t reserve(std::uint64_t n) { return e.reserve_seqs(n); }
  void call_at_seq(Time t, std::uint64_t s, int id) {
    e.schedule_call_at_seq(t, s, [this, id] { fire(id); });
  }
  void run() { e.run(); }
};

CoTask<void> wake_at(EngineQueue& q, Time t, int id) {
  co_await q.e.until(t);
  q.fire(id);
}

template <typename Q>
class QueueScript {
 public:
  static constexpr int kLimit = 40000;  // events scheduled per run

  QueueScript(Q& q, std::uint64_t seed) : q_(q), rng_(seed) {
    q_.fire = [this](int id) {
      log.push_back(id);
      if (next_id_ >= kLimit) return;
      for (auto k = rng_.next_below(3); k > 0; --k) push_one();
    };
  }

  // 12k events on a fine grid (over 10k distinct instants queued at once:
  // the timestamp table grows and deletes with backward shifts), 4k on a
  // coarse grid (long runs), a few reserved blocks.
  void seed_events() {
    for (int i = 0; i < 12000; ++i) {
      q_.call(static_cast<Time>(rng_.next_below(100000)) * kGrid, next_id_++);
    }
    for (int i = 0; i < 4000; ++i) {
      q_.call(static_cast<Time>(rng_.next_below(50)) * 2000 * kGrid,
              next_id_++);
    }
    for (int i = 0; i < 8; ++i) reserve_block();
  }

  // After a drain: more events at now() (the drained instant reopens) and
  // beyond, including reserved seqs left over from the first run.
  void reseed_events() {
    for (int i = 0; i < 2000; ++i) push_one();
    for (int i = 0; i < 16 && !reserved_.empty(); ++i) post_reserved();
  }

  std::vector<int> log;

 private:
  static constexpr Time kGrid = 500;
  static constexpr Time kHorizon = Time{1} << 62;

  Time delta() {
    switch (rng_.next_below(5)) {
      case 0: return 0;
      case 1: return static_cast<Time>(1 + rng_.next_below(4)) * kGrid;
      case 2: return static_cast<Time>(rng_.next_below(1000)) * kGrid;
      case 3: return static_cast<Time>(1 + rng_.next_below(100000));
      default: {
        // Far future, up to 2^k ps ahead for k from 26 to 61: the run sits
        // in a high radix bucket and moves down as earlier instants drain.
        // The clock stays below kHorizon, so times never overflow.
        const Time room = kHorizon - q_.now();
        if (room <= 1) return 0;
        const std::uint64_t span = std::uint64_t{1}
                                   << (26 + rng_.next_below(36));
        return static_cast<Time>(rng_.next_below(
            std::min(span, static_cast<std::uint64_t>(room))));
      }
    }
  }

  void reserve_block() {
    const auto n = 1 + rng_.next_below(4);
    const std::uint64_t base = q_.reserve(n);
    for (std::uint64_t j = 0; j < n; ++j) reserved_.push_back(base + j);
  }

  // Oldest unposted reserved seq; at now() half of the time, so it lands
  // in the instant being drained, ahead of that instant's later seqs.
  void post_reserved() {
    const Time t = q_.now() + (rng_.next_below(2) == 0 ? 0 : delta());
    q_.call_at_seq(t, reserved_.front(), next_id_++);
    reserved_.pop_front();
  }

  void push_one() {
    const Time d = delta();
    const auto action = rng_.next_below(10);
    if (action <= 4) {
      q_.call(q_.now() + d, next_id_++);
    } else if (action <= 6) {
      // A coroutine suspends only for a positive delay.
      q_.delay_until(q_.now() + std::max<Time>(d, 1), next_id_++);
    } else if (action == 7) {
      reserve_block();
    } else if (!reserved_.empty()) {
      post_reserved();
    } else {
      q_.call(q_.now() + d, next_id_++);
    }
  }

  Q& q_;
  util::SplitMix64 rng_;
  int next_id_ = 0;
  std::deque<std::uint64_t> reserved_;
};

TEST(InstantQueue, FiresInReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RefQueue ref;
    QueueScript<RefQueue> ref_script(ref, seed);
    EngineQueue eng;
    QueueScript<EngineQueue> eng_script(eng, seed);
    for (int round = 0; round < 2; ++round) {
      if (round == 0) {
        ref_script.seed_events();
        eng_script.seed_events();
      } else {
        ref_script.reseed_events();
        eng_script.reseed_events();
      }
      ref.run();
      eng.run();
      ASSERT_EQ(eng_script.log.size(), ref_script.log.size())
          << "seed " << seed << " round " << round;
      for (std::size_t i = 0; i < ref_script.log.size(); ++i) {
        ASSERT_EQ(eng_script.log[i], ref_script.log[i])
            << "seed " << seed << " round " << round << " pop " << i;
      }
      EXPECT_EQ(eng.now(), ref.now()) << "seed " << seed;
      // The far-future runs drained through the high radix buckets.
      EXPECT_GE(eng.now(), Time{1} << 60) << "seed " << seed;
    }
    const EnginePerf p = eng.e.perf();
    EXPECT_EQ(p.events, eng_script.log.size());
    EXPECT_EQ(p.events, p.resumes + p.callbacks);
    EXPECT_GT(p.resumes, 0u);
    EXPECT_GE(p.peak_instants, 10000u) << "seed " << seed;
    EXPECT_GE(p.instants, p.peak_instants);
    EXPECT_LT(p.instants, p.events);  // some instants held several events
    EXPECT_EQ(p.callback_pool.live, 0u);
  }
}

TEST(InstantQueue, TeardownDisposesEveryQueuedCallback) {
  auto token = std::make_shared<int>(0);
  {
    Engine e;
    util::SplitMix64 rng(7);
    const std::uint64_t base = e.reserve_seqs(100);
    // Abandon the run mid-instant: the later events at this instant and
    // every later instant stay queued.
    e.schedule_call(150 * 1000, [] { throw std::runtime_error("abandon"); });
    for (int i = 0; i < 5000; ++i) {
      // Half near the abandoning instant, half from 2^10 to 2^59 ps, so the
      // queued runs sit in many radix buckets.
      const Time t =
          i % 2 == 0 ? static_cast<Time>(rng.next_below(300)) * 1000
                     : (Time{1} << (10 + rng.next_below(50))) +
                           static_cast<Time>(rng.next_below(1000));
      if (i < 100) {
        e.schedule_call_at_seq(t, base + static_cast<std::uint64_t>(i),
                               [token] {});
      } else {
        e.schedule_call(t, [token] {});
      }
    }
    EXPECT_THROW(e.run(), std::runtime_error);
    EXPECT_GT(e.perf().callback_pool.live, 0u);
    EXPECT_EQ(static_cast<long>(e.perf().callback_pool.live) + 1,
              token.use_count());
  }
  EXPECT_EQ(token.use_count(), 1);
}

// An oracle pop chooses only among the front instant's tagged delivers,
// in seq order, deduplicated per source; untagged events at the same
// instant keep their canonical places.
TEST(InstantQueue, OraclePopMixesTaggedAndUntaggedEvents) {
  struct LastPickOracle : RecordingOracle {
    std::size_t choose(ChoiceKind k, const std::vector<ChoiceAlt>& alts) override {
      RecordingOracle::choose(k, alts);
      return alts.size() - 1;
    }
  };
  Engine e;
  LastPickOracle oracle;
  e.set_oracle(&oracle);
  std::vector<std::string> order;
  auto note = [&order](const char* what) {
    return [&order, what] { order.emplace_back(what); };
  };
  e.schedule_call(us(1.0), note("u0"));
  e.schedule_call_mc(us(1.0), McChannel{0, 0, 7, 1}, note("t1"));
  e.schedule_call(us(1.0), note("u2"));
  e.schedule_call_mc(us(1.0), McChannel{0, 0, 7, 2}, note("t3"));
  e.schedule_call_mc(us(1.0), McChannel{0, 0, 7, 1}, note("t4"));  // FIFO
  e.schedule_call_mc(us(1.0), McChannel{1, 0, 7, 3}, note("t5"));  // other rank
  e.schedule_call_mc(us(2.0), McChannel{0, 0, 7, 4}, note("later"));
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"u0", "t3", "t1", "u2", "t4",
                                             "t5", "later"}));
  ASSERT_EQ(oracle.calls.size(), 1u);
  ASSERT_EQ(oracle.calls[0].size(), 2u);
  EXPECT_EQ(oracle.calls[0][0].src, 1);
  EXPECT_EQ(oracle.calls[0][1].src, 2);
}

CoTask<void> delayer(Engine& e, Time d, int id, std::vector<int>& log) {
  co_await e.delay(d);
  log.push_back(id);
}

TEST(Engine, CoroutineDelayAdvancesClock) {
  Engine e;
  std::vector<int> log;
  e.spawn(delayer(e, us(2.0), 1, log));
  e.spawn(delayer(e, us(1.0), 2, log));
  e.run();
  EXPECT_EQ(log, (std::vector<int>{2, 1}));
  EXPECT_EQ(e.now(), us(2.0));
  EXPECT_EQ(e.live_tasks(), 0);
}

CoTask<void> nested_child(Engine& e, std::vector<int>& log) {
  log.push_back(1);
  co_await e.delay(us(1.0));
  log.push_back(2);
}

CoTask<void> nested_parent(Engine& e, std::vector<int>& log) {
  log.push_back(0);
  co_await nested_child(e, log);
  log.push_back(3);
}

TEST(Engine, NestedCoTaskResumesParent) {
  Engine e;
  std::vector<int> log;
  e.spawn(nested_parent(e, log));
  e.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
}

CoTask<int> answer(Engine& e) {
  co_await e.delay(ns(10));
  co_return 42;
}

CoTask<void> asker(Engine& e, int& out) { out = co_await answer(e); }

TEST(Engine, CoTaskReturnsValue) {
  Engine e;
  int out = 0;
  e.spawn(asker(e, out));
  e.run();
  EXPECT_EQ(out, 42);
}

CoTask<void> thrower(Engine& e) {
  co_await e.delay(ns(5));
  throw std::runtime_error("boom");
}

TEST(Engine, TaskExceptionPropagatesFromRun) {
  Engine e;
  e.spawn(thrower(e));
  EXPECT_THROW(e.run(), std::runtime_error);
}

CoTask<void> catcher(Engine& e, bool& caught) {
  try {
    co_await thrower(e);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Engine, NestedExceptionCatchable) {
  Engine e;
  bool caught = false;
  e.spawn(catcher(e, caught));
  e.run();
  EXPECT_TRUE(caught);
}

CoTask<void> delayer_noop(Engine& e, Time d) { co_await e.delay(d); }

CoTask<void> spawner(Engine& e, int& done_count) {
  auto f1 = e.spawn_sub(delayer_noop(e, us(3.0)));
  auto f2 = e.spawn_sub(delayer_noop(e, us(1.0)));
  co_await f1->wait();
  co_await f2->wait();
  ++done_count;
}

TEST(Engine, SpawnSubCompletionFlags) {
  Engine e;
  int done = 0;
  e.spawn(spawner(e, done));
  e.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(e.now(), us(3.0));
}

TEST(Engine, ZeroDelayDoesNotSuspend) {
  Engine e;
  bool ran = false;
  e.spawn([](Engine& eng, bool& flag) -> CoTask<void> {
    co_await eng.delay(0);
    co_await eng.delay(-5);  // clamped
    flag = true;
  }(e, ran));
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 0);
}

TEST(Time, Conversions) {
  EXPECT_EQ(ns(1.0), 1000);
  EXPECT_EQ(us(1.0), 1000 * 1000);
  EXPECT_EQ(from_seconds(1e-6), us(1.0));
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_us(us(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_ns(ns(7.0)), 7.0);
}

TEST(Time, TransferTime) {
  // 1000 bytes at 1 GB/s = 1 microsecond.
  EXPECT_EQ(transfer_time(1000, 1.0), us(1.0));
  // Zero bandwidth treated as instantaneous (guard path).
  EXPECT_EQ(transfer_time(1000, 0.0), 0);
}

TEST(Resource, FifoSerializesOverlappingRequests) {
  FifoResource r("nic");
  EXPECT_EQ(r.acquire(0, 100), 100);
  EXPECT_EQ(r.acquire(10, 100), 200);   // queued behind first
  EXPECT_EQ(r.acquire(500, 100), 600);  // idle gap
  EXPECT_EQ(r.busy_time(), 300);
  EXPECT_EQ(r.grants(), 3u);
}

TEST(Resource, RejectsOutOfOrderArrivals) {
  FifoResource r;
  r.acquire(100, 10);
  EXPECT_THROW(r.acquire(50, 10), util::InvariantError);
}

TEST(Resource, ResetClearsState) {
  FifoResource r;
  r.acquire(0, 100);
  r.reset();
  EXPECT_EQ(r.free_at(), 0);
  EXPECT_EQ(r.busy_time(), 0);
  EXPECT_EQ(r.acquire(0, 5), 5);
}

}  // namespace
}  // namespace dpml::sim
