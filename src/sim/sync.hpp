// Synchronization primitives for simulated processes.
//
// All primitives are single-threaded (the engine is sequential); "blocking"
// means suspending the coroutine until another simulated process signals.
// Signal propagation is instantaneous in simulated time — physical signalling
// cost (e.g. a shared-memory flag write) is charged explicitly by the caller
// via Engine::delay with the hardware model's flag latency.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/error.hpp"

namespace dpml::sim {

// One-shot event: wait() suspends until post(); waits after post() complete
// immediately. reset() re-arms (only valid with no pending waiters). post()
// resumes the waiters in wait order. Each waiter's record is its awaiter,
// which lives in the suspended frame, and the records form a FIFO list: no
// Flag allocates, whether one process waits on it (a receive, a
// non-blocking request) or a whole node does (a collective slot's flag).
class Flag {
 public:
  explicit Flag(Engine& engine) : engine_(engine) {}

  void post();
  bool posted() const { return posted_; }
  void reset();

  auto wait() { return Awaiter{*this}; }

 private:
  struct Awaiter {
    Flag& flag;
    std::coroutine_handle<> handle{};
    Awaiter* next = nullptr;
    bool await_ready() const noexcept { return flag.posted_; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      handle = h;
      (flag.tail_ != nullptr ? flag.tail_->next : flag.head_) = this;
      flag.tail_ = this;
    }
    void await_resume() const noexcept {}
  };

  Engine& engine_;
  bool posted_ = false;
  Awaiter* head_ = nullptr;  // the waiters, in wait order
  Awaiter* tail_ = nullptr;
};

// Count-down latch: wait() resumes once arrive() has been called `expect`
// times. Reusable via reset().
class Latch {
 public:
  Latch(Engine& engine, int expect) : flag_(engine), expect_(expect) {
    DPML_CHECK(expect >= 0);
    if (expect_ == 0) flag_.post();
  }

  void arrive(int k = 1);
  auto wait() { return flag_.wait(); }
  void reset(int expect);
  int pending() const { return expect_ - arrived_; }

 private:
  Flag flag_;
  int expect_;
  int arrived_ = 0;
};

// Cyclic barrier for `parties` simulated processes. The generation counter
// makes back-to-back barriers safe.
class Barrier {
 public:
  Barrier(Engine& engine, int parties) : engine_(engine), parties_(parties) {
    DPML_CHECK(parties >= 1);
  }

  auto arrive_and_wait() { return Awaiter{*this}; }
  std::uint64_t generation() const { return generation_; }

 private:
  struct Awaiter {
    Barrier& barrier;
    bool await_ready() const noexcept { return barrier.parties_ == 1; }
    bool await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  void release_all();

  Engine& engine_;
  int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Counting semaphore with FIFO waiters. Models bounded hardware concurrency
// (e.g. the SHArP outstanding-operation limit).
class Semaphore {
 public:
  Semaphore(Engine& engine, int permits) : engine_(engine), permits_(permits) {
    DPML_CHECK(permits >= 0);
  }

  auto acquire() { return Awaiter{*this}; }
  void release();
  int available() const { return permits_; }
  int waiting() const { return static_cast<int>(waiters_.size()); }

 private:
  struct Awaiter {
    Semaphore& sem;
    // Fast path: take a permit immediately when one is free and nobody is
    // queued ahead of us (FIFO fairness).
    bool await_ready() noexcept {
      if (sem.permits_ > 0 && sem.waiters_.empty()) {
        --sem.permits_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { sem.waiters_.push_back(h); }
    // Slow path: release() transferred its permit to us directly.
    void await_resume() const noexcept {}
  };

  Engine& engine_;
  int permits_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Await completion of a set of Flags (the waitall building block).
CoTask<void> wait_all(std::vector<std::shared_ptr<Flag>> flags);

}  // namespace dpml::sim
