// dpmllint — a token-level coroutine/determinism linter for the dpml tree.
//
// The simulator's correctness rests on two properties a C++ compiler cannot
// enforce:
//
//   1. Coroutine lifetime discipline. A coroutine frame outlives the
//      statement that created it, so a lambda coroutine that captures by
//      reference (or a plain coroutine that stashes a pointer/reference to a
//      caller's stack) dangles as soon as the creator resumes past the first
//      co_await. These bugs are timing-dependent and survive most tests.
//
//   2. Determinism. Every stochastic choice must flow through util/rng
//      (SplitMix64 keyed by (seed, purpose, rank, op)) and every quantity
//      that feeds simulated time must be reproducible. Raw rand()/
//      std::random_device/wall-clock reads, or iteration order of unordered
//      containers leaking into simulated-time decisions, silently break the
//      bit-reproducibility the golden tests lock in.
//
// dpmllint scans source text (comments and string literals masked out; no
// compiler needed, so it runs in every CI configuration) and reports
// violations of five rules:
//
//   coro-ref-capture    lambda with a by-reference capture whose body
//                       contains co_await/co_yield (the frame may outlive
//                       every captured object)
//   raw-random          rand()/srand()/random()/drand48()/std::random_device/
//                       std::mt19937 outside src/util/rng
//   wall-clock          time()/clock()/gettimeofday()/clock_gettime() or
//                       std::chrono::{system,steady,high_resolution}_clock
//                       reads (simulated code must use sim::Engine::now())
//   unordered-iteration range-for over a container declared as
//                       std::unordered_map/set in the same file (iteration
//                       order is implementation-defined; use std::map or an
//                       explicitly sorted view when order can reach
//                       simulated time)
//   await-temporary     braced-init-list argument inside a co_await
//                       expression, non-empty or after a type name (T{},
//                       ns::T{...}); the temporary must live across the
//                       suspension and gcc 12 double-destroys it (frame
//                       slot reuse → bad free) — bind it to a named local
//                       before the co_await
//
// Suppressions (checked against the raw, unmasked line text):
//   // dpmllint: allow(<rule>)        on the finding's line or the line above
//   // dpmllint: allow-file(<rule>)   anywhere in the file
// `all` matches every rule. Suppression of a rule that never fires is
// harmless — the linter does not track unused allows.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dpml::lint {

struct Finding {
  std::string file;   // path as given on the command line
  int line = 0;       // 1-based
  std::string rule;   // e.g. "coro-ref-capture"
  std::string message;
};

// Lint one translation unit's text. `file` is used only for labeling and for
// the raw-random exemption of util/rng itself.
std::vector<Finding> lint_source(const std::string& file,
                                 const std::string& content);

// Read `path` and lint it. Throws std::runtime_error if unreadable.
std::vector<Finding> lint_file(const std::string& path);

// Expand files/directories into the list of sources to lint (recursing into
// directories for .hpp/.h/.cpp/.cc), sorted for deterministic output.
std::vector<std::string> collect_sources(const std::vector<std::string>& paths);

// "file:line: [rule] message" per finding, plus a trailing summary line.
void print_text(std::ostream& os, const std::vector<Finding>& findings);

// JSON array of {file, line, rule, message} objects (machine-readable CI
// artifact).
void print_json(std::ostream& os, const std::vector<Finding>& findings);

}  // namespace dpml::lint
