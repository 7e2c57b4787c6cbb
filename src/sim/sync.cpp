#include "sim/sync.hpp"

#include <memory>
#include <utility>

namespace dpml::sim {

void Flag::post() {
  if (posted_) return;
  posted_ = true;
  // Resume waiters through the event queue (flat, deterministic order)
  // rather than nested direct resumption. Scheduling resumes nothing yet,
  // so each record is still alive when its successor is read.
  for (Awaiter* w = std::exchange(head_, nullptr); w != nullptr; w = w->next) {
    engine_.schedule_at(engine_.now(), w->handle);
  }
  tail_ = nullptr;
}

void Flag::reset() {
  DPML_CHECK_MSG(head_ == nullptr, "resetting a Flag with pending waiters");
  posted_ = false;
}

void Latch::arrive(int k) {
  DPML_CHECK(k >= 1);
  arrived_ += k;
  DPML_CHECK_MSG(arrived_ <= expect_, "Latch over-arrived");
  if (arrived_ == expect_) flag_.post();
}

void Latch::reset(int expect) {
  DPML_CHECK(expect >= 0);
  flag_.reset();
  expect_ = expect;
  arrived_ = 0;
  if (expect_ == 0) flag_.post();
}

bool Barrier::Awaiter::await_suspend(std::coroutine_handle<> h) {
  Barrier& b = barrier;
  ++b.arrived_;
  if (b.arrived_ == b.parties_) {
    b.release_all();
    return false;  // last arriver proceeds without suspending
  }
  b.waiters_.push_back(h);
  return true;
}

void Barrier::release_all() {
  for (auto h : waiters_) engine_.schedule_at(engine_.now(), h);
  waiters_.clear();
  arrived_ = 0;
  ++generation_;
}

void Semaphore::release() {
  if (!waiters_.empty()) {
    auto h = waiters_.front();
    waiters_.pop_front();
    // Permit is handed to the waiter; permits_ stays unchanged.
    engine_.schedule_at(engine_.now(), h);
  } else {
    ++permits_;
  }
}

CoTask<void> wait_all(std::vector<std::shared_ptr<Flag>> flags) {
  for (auto& f : flags) {
    DPML_CHECK(f != nullptr);
    co_await f->wait();
  }
}

}  // namespace dpml::sim
