#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/oracle.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "util/error.hpp"

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
// the reserving batch's event would have, under both schedulers.
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
