#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"

namespace dpml::sim {
namespace {

CoTask<void> wait_flag(Flag& f, std::vector<int>& log, int id) {
  co_await f.wait();
  log.push_back(id);
}

CoTask<void> post_flag_at(Engine& e, Flag& f, Time t) {
  co_await e.delay(t);
  f.post();
}

TEST(Flag, WakesAllWaiters) {
  Engine e;
  Flag f(e);
  std::vector<int> log;
  e.spawn(wait_flag(f, log, 1));
  e.spawn(wait_flag(f, log, 2));
  e.spawn(post_flag_at(e, f, us(5.0)));
  e.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), us(5.0));
}

TEST(Flag, WaitAfterPostIsImmediate) {
  Engine e;
  Flag f(e);
  f.post();
  std::vector<int> log;
  e.spawn(wait_flag(f, log, 7));
  e.run();
  EXPECT_EQ(log, (std::vector<int>{7}));
  EXPECT_EQ(e.now(), 0);
}

TEST(Flag, DoublePostIsIdempotent) {
  Engine e;
  Flag f(e);
  f.post();
  f.post();
  EXPECT_TRUE(f.posted());
}

TEST(Flag, ResetRearms) {
  Engine e;
  Flag f(e);
  f.post();
  f.reset();
  EXPECT_FALSE(f.posted());
}

TEST(Flag, ResumesOneWaiterAndSeveralInWaitOrder) {
  Engine e;
  Flag one(e);
  Flag many(e);
  std::vector<int> log;
  e.spawn(wait_flag(one, log, 0));
  // Waiters 1..6 arrive over time, not in id order of their spawns.
  for (int id : {4, 1, 6}) e.spawn(wait_flag(many, log, id));
  e.spawn([](Engine& eng, Flag& f, std::vector<int>& l) -> CoTask<void> {
    co_await eng.delay(us(1.0));
    co_await wait_flag(f, l, 2);
  }(e, many, log));
  e.spawn([](Engine& eng, Flag& f, std::vector<int>& l) -> CoTask<void> {
    co_await eng.delay(us(2.0));
    for (int id : {5, 3}) eng.spawn(wait_flag(f, l, id));
  }(e, many, log));
  e.spawn(post_flag_at(e, one, us(3.0)));
  e.spawn(post_flag_at(e, many, us(4.0)));
  e.run();
  EXPECT_EQ(log, (std::vector<int>{0, 4, 1, 6, 2, 5, 3}));
  // Posting emptied the list: a re-armed flag takes new waiters.
  many.reset();
  e.spawn(wait_flag(many, log, 9));
  e.spawn(post_flag_at(e, many, us(1.0)));
  e.run();
  EXPECT_EQ(log.back(), 9);
  EXPECT_EQ(log.size(), 8u);
}

TEST(Flag, NeverPostedDeadlocks) {
  Engine e;
  Flag f(e);
  std::vector<int> log;
  e.spawn(wait_flag(f, log, 1));
  EXPECT_THROW(e.run(), util::DeadlockError);
}

CoTask<void> latch_arriver(Engine& e, Latch& l, Time at) {
  co_await e.delay(at);
  l.arrive();
}

CoTask<void> latch_waiter(Latch& l, bool& done) {
  co_await l.wait();
  done = true;
}

TEST(Latch, ReleasesAfterAllArrivals) {
  Engine e;
  Latch l(e, 3);
  bool done = false;
  e.spawn(latch_waiter(l, done));
  for (int i = 1; i <= 3; ++i) e.spawn(latch_arriver(e, l, us(i)));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), us(3.0));
}

TEST(Latch, ZeroExpectIsOpen) {
  Engine e;
  Latch l(e, 0);
  bool done = false;
  e.spawn(latch_waiter(l, done));
  e.run();
  EXPECT_TRUE(done);
}

TEST(Latch, OverArrivalThrows) {
  Engine e;
  Latch l(e, 1);
  l.arrive();
  EXPECT_THROW(l.arrive(), util::InvariantError);
}

TEST(Latch, ResetReuses) {
  Engine e;
  Latch l(e, 2);
  l.arrive(2);
  l.reset(1);
  EXPECT_EQ(l.pending(), 1);
  bool done = false;
  e.spawn(latch_waiter(l, done));
  e.spawn(latch_arriver(e, l, us(1.0)));
  e.run();
  EXPECT_TRUE(done);
}

CoTask<void> barrier_worker(Engine& e, Barrier& b, int id, Time skew,
                            std::vector<std::pair<int, Time>>& log) {
  co_await e.delay(skew);
  co_await b.arrive_and_wait();
  log.emplace_back(id, e.now());
  co_await b.arrive_and_wait();
  log.emplace_back(id + 100, e.now());
}

TEST(Barrier, SynchronizesAndReuses) {
  Engine e;
  Barrier b(e, 3);
  std::vector<std::pair<int, Time>> log;
  e.spawn(barrier_worker(e, b, 0, us(1.0), log));
  e.spawn(barrier_worker(e, b, 1, us(5.0), log));
  e.spawn(barrier_worker(e, b, 2, us(3.0), log));
  e.run();
  ASSERT_EQ(log.size(), 6u);
  // First barrier releases everyone at the latest arrival (5us).
  for (int i = 0; i < 3; ++i) EXPECT_EQ(log[i].second, us(5.0));
  // Second barrier releases immediately after (no further delays).
  for (int i = 3; i < 6; ++i) EXPECT_EQ(log[i].second, us(5.0));
  EXPECT_EQ(b.generation(), 2u);
}

TEST(Barrier, SinglePartyPassesThrough) {
  Engine e;
  Barrier b(e, 1);
  bool done = false;
  e.spawn([](Barrier& bar, bool& flag) -> CoTask<void> {
    co_await bar.arrive_and_wait();
    flag = true;
  }(b, done));
  e.run();
  EXPECT_TRUE(done);
}

CoTask<void> sem_user(Engine& e, Semaphore& s, Time hold,
                      std::vector<Time>& starts) {
  co_await s.acquire();
  starts.push_back(e.now());
  co_await e.delay(hold);
  s.release();
}

TEST(Semaphore, LimitsConcurrency) {
  Engine e;
  Semaphore s(e, 2);
  std::vector<Time> starts;
  for (int i = 0; i < 4; ++i) e.spawn(sem_user(e, s, us(10.0), starts));
  e.run();
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 0);
  EXPECT_EQ(starts[2], us(10.0));
  EXPECT_EQ(starts[3], us(10.0));
  EXPECT_EQ(s.available(), 2);
}

TEST(Semaphore, FifoOrderAmongWaiters) {
  Engine e;
  Semaphore s(e, 1);
  std::vector<Time> starts;
  for (int i = 0; i < 3; ++i) e.spawn(sem_user(e, s, us(1.0), starts));
  e.run();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], us(1.0));
  EXPECT_EQ(starts[2], us(2.0));
}

CoTask<void> waitall_user(Engine& e, bool& done) {
  std::vector<std::shared_ptr<Flag>> flags;
  for (int i = 1; i <= 3; ++i) {
    flags.push_back(e.spawn_sub(
        [](Engine& eng, Time d) -> CoTask<void> { co_await eng.delay(d); }(
            e, us(static_cast<double>(i)))));
  }
  co_await wait_all(std::move(flags));
  done = true;
}

TEST(WaitAll, CompletesAtSlowest) {
  Engine e;
  bool done = false;
  e.spawn(waitall_user(e, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), us(3.0));
}

TEST(WaitAll, EmptySetCompletesImmediately) {
  Engine e;
  bool done = false;
  e.spawn([](bool& flag) -> CoTask<void> {
    co_await wait_all({});
    flag = true;
  }(done));
  e.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace dpml::sim
