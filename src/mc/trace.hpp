// Replayable schedule traces (dpmlmc counterexamples, dpmlsim --mc-replay).
//
// A trace is everything needed to deterministically re-execute one explored
// schedule: the run configuration, the frozen wildcard-channel set the
// explorer's independence relation used, and the choice vector (one entry
// per oracle choice point; trailing canonical zeros are trimmed, so the
// counterexample is the minimal divergence from the default schedule). The
// failure fields record what the schedule did — replay recomputes them and
// must observe the same outcome. JSON, hand-rolled both ways (no external
// dependencies; the writer and the parser live in trace.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "coll/registry.hpp"
#include "simmpi/datatype.hpp"

namespace dpml::mc {

// One (cluster, shape, collective) configuration the explorer runs. The op
// is always the affine non-commutative composition for reduction kinds
// (mc/affine.hpp) and the deterministic builtin pattern otherwise.
struct McConfig {
  std::string cluster = "test";
  int nodes = 1;
  int ppn = 2;
  coll::CollKind kind = coll::CollKind::allreduce;
  std::string algo = "auto";
  std::size_t count = 16;  // per-rank (per-block) element count
  simmpi::Dtype dt = simmpi::Dtype::i32;
  int leaders = 2;
  int root = 0;

  int np() const { return nodes * ppn; }
  std::string label() const;
};

struct Trace {
  McConfig config;
  // Choice-point decisions, in oracle-call order; index k picks alts[k]
  // (0 = canonical). Shorter than the run's choice-point count: every
  // unlisted choice is canonical.
  std::vector<int> choices;
  // Frozen wildcard channels (rank, ctx) the independence relation used;
  // replay seeds the oracle with these so choice points align exactly.
  std::vector<std::pair<int, int>> wild;
  // Observed outcome: "" (passed), "check", "deadlock", or "error".
  std::string failure_type;
  std::string failure_report;
  // Structured wait-cycle JSON (check::deadlock_report_json) when the
  // failure was a deadlock; empty otherwise.
  std::string deadlock_json;
};

std::string trace_json(const Trace& t);
void save_trace(const Trace& t, const std::string& path);
// Throws util::InvariantError on malformed input, one line naming the
// field (or the JSON offset) and no source path: every number must be a
// whole number that fits an int (at least 1 for nodes, ppn and leaders, 0
// for the rest, root below nodes * ppn), and choices and wild arrays.
Trace parse_trace(const std::string& json);
Trace load_trace(const std::string& path);

}  // namespace dpml::mc
