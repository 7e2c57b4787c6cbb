#include "core/executor.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/args.hpp"
#include "util/error.hpp"

namespace dpml::core {

namespace {

// 0 means "not resolved yet": the first default_jobs() call reads DPML_JOBS.
std::atomic<int> g_default_jobs{0};

// Set while the calling thread runs inside Executor::run's worker loop, so
// nested sweeps degrade to serial instead of oversubscribing the host.
thread_local bool t_in_worker = false;

int jobs_from_env() {
  const char* env = std::getenv("DPML_JOBS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 1) return 1;
  return static_cast<int>(v);
}

}  // namespace

int default_jobs() {
  int v = g_default_jobs.load(std::memory_order_acquire);
  if (v == 0) {
    v = jobs_from_env();
    g_default_jobs.store(v, std::memory_order_release);
  }
  return v;
}

void set_default_jobs(int jobs) {
  g_default_jobs.store(jobs < 1 ? 1 : jobs, std::memory_order_release);
}

int parse_jobs(const std::string& text) {
  const int jobs = util::Args::parse_int("--jobs", text);
  if (jobs < 1) {
    throw util::InvariantError("bad value '" + text +
                               "' for --jobs: expected an integer >= 1");
  }
  return jobs;
}

bool in_executor_worker() { return t_in_worker; }

Executor::Executor(int jobs) : jobs_(jobs == 0 ? default_jobs() : jobs) {
  if (jobs_ < 1) jobs_ = 1;
}

void Executor::run(std::size_t n,
                   const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  const std::size_t workers =
      std::min(static_cast<std::size_t>(jobs_), n);
  if (workers <= 1 || t_in_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Indexes are claimed through a monotone counter, so when any index has
  // been claimed every lower index has been claimed too. That makes the
  // first-error semantics serial-equivalent: every job below a recorded
  // failure runs to completion, and the error that propagates is the one
  // with the lowest index — exactly what the serial loop would have thrown.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> first_error{n};  // min failing index so far
  std::mutex err_mu;
  std::exception_ptr err;
  std::size_t err_index = n;

  auto worker = [&]() {
    t_in_worker = true;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      // Cancellation: indexes above the first recorded failure never start.
      if (i > first_error.load(std::memory_order_acquire)) break;
      try {
        fn(i);
      } catch (...) {
        std::size_t cur = first_error.load(std::memory_order_acquire);
        while (i < cur && !first_error.compare_exchange_weak(
                              cur, i, std::memory_order_acq_rel)) {
        }
        std::lock_guard<std::mutex> lock(err_mu);
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
      }
    }
    t_in_worker = false;
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (err) std::rethrow_exception(err);
}

}  // namespace dpml::core
