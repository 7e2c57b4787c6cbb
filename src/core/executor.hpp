// Deterministic parallel sweep executor.
//
// Every paper figure is a sweep over (message size x leader count x cluster
// x repetitions): fully independent, deterministic simulations. The
// Executor fans those jobs out across threads while guaranteeing results
// that are byte-identical to the serial loop:
//
//   * No work stealing, no shared simulation state: each job constructs its
//     own Machine/Engine with an explicitly derived seed (e.g. measure's
//     perturb.seed + rep), so a job's output is a pure function of its
//     index.
//   * Results are committed into pre-sized slots owned by the caller
//     (run(n, fn) invokes fn(i) exactly once per index; map() writes
//     out[i]), so no ordering race can reach the results.
//   * Errors are serial-equivalent: the exception rethrown is the one the
//     serial loop would have hit first — the lowest-index failing job.
//     Jobs with lower indexes always run to completion; jobs above the
//     first failure are cancelled (never started) where possible.
//
// Nesting: an Executor used from inside another Executor's worker runs its
// jobs serially, so the outermost sweep level owns the parallelism and the
// total thread count stays bounded by --jobs.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace dpml::core {

// Process-wide default job count used when an Executor (or MeasureOptions)
// leaves `jobs` at 0. Initialized from the DPML_JOBS environment variable
// (when set to an integer >= 1), otherwise 1; dpmlsim/bench `--jobs N`
// overrides it via set_default_jobs.
int default_jobs();
void set_default_jobs(int jobs);

// The value of a --jobs flag (dpmlsim, the benches): an integer of at least
// 1 under the util::Args::get_int rule. Anything else throws
// util::InvariantError naming --jobs and the text.
int parse_jobs(const std::string& text);

// True while the calling thread is an Executor worker (used to serialize
// nested sweeps; exposed for tests).
bool in_executor_worker();

class Executor {
 public:
  // jobs == 0 resolves to default_jobs(); anything below 1 clamps to 1.
  explicit Executor(int jobs = 0);

  int jobs() const { return jobs_; }

  // Run fn(0) .. fn(n-1), committing whatever fn writes into caller-owned
  // slots. Serial when jobs() == 1, n <= 1, or already inside a worker.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  // Convenience: evaluate fn(i) into a pre-sized result vector, in slot
  // order. T must be default-constructible and movable.
  template <typename T, typename Fn>
  std::vector<T> map(std::size_t n, Fn&& fn) const {
    std::vector<T> out(n);
    run(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  int jobs_;
};

}  // namespace dpml::core
