// Coroutine task type for simulated processes.
//
// Every simulated activity (an MPI rank's program, a sub-operation such as a
// non-blocking send, a SHArP operation) is a CoTask coroutine. CoTasks are
// lazy: they start when first awaited (or when handed to Engine::spawn /
// Engine::spawn_sub). Completion uses symmetric transfer so deep call chains
// do not grow the native stack.
//
// Exceptions thrown inside a CoTask are captured and rethrown at the
// awaiter's co_await, so simulated-runtime failures surface naturally in
// tests and at Machine::run().
//
// Frames come from the thread's FramePool (sim/pool.hpp): a warm pool
// serves a frame with a free-list pop instead of a malloc.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/pool.hpp"
#include "util/error.hpp"

namespace dpml::sim {

template <typename T>
class CoTask;

namespace detail {

struct FinalAwaiter {
  bool await_ready() noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr error{};

  static void* operator new(std::size_t size) {
    return FramePool::local().allocate(size);
  }
  static void operator delete(void* p, std::size_t size) noexcept {
    FramePool::local().deallocate(p, size);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  T value{};
  CoTask<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  CoTask<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] CoTask {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  CoTask() = default;
  explicit CoTask(Handle h) : h_(h) {}
  CoTask(CoTask&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  CoTask& operator=(CoTask&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  ~CoTask() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }

  // Awaiter interface: awaiting a CoTask starts it and resumes the awaiter
  // when it completes (symmetric transfer in both directions).
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    DPML_CHECK_MSG(h_ && !h_.done(), "awaiting an empty or finished CoTask");
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    auto& p = h_.promise();
    if (p.error) std::rethrow_exception(p.error);
    if constexpr (!std::is_void_v<T>) {
      return std::move(p.value);
    }
  }

  Handle release() { return std::exchange(h_, {}); }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_{};
};

namespace detail {
template <typename T>
CoTask<T> Promise<T>::get_return_object() {
  return CoTask<T>{std::coroutine_handle<Promise<T>>::from_promise(*this)};
}
inline CoTask<void> Promise<void>::get_return_object() {
  return CoTask<void>{std::coroutine_handle<Promise<void>>::from_promise(*this)};
}
}  // namespace detail

}  // namespace dpml::sim
