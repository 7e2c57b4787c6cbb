#include "apps/replay.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

#include "apps/program.hpp"
#include "util/error.hpp"

namespace dpml::apps {

std::vector<TraceOp> parse_trace(const std::string& text) {
  std::vector<TraceOp> ops;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(t);
    if (tok.empty()) continue;
    const std::string where = "trace line " + std::to_string(lineno) + ": ";
    const std::string& kind = tok[0];
    TraceOp op;
    if (kind == "allreduce") {
      op.kind = TraceOp::Kind::allreduce;
    } else if (kind == "reduce") {
      op.kind = TraceOp::Kind::reduce;
    } else if (kind == "bcast") {
      op.kind = TraceOp::Kind::bcast;
    } else if (kind == "barrier") {
      op.kind = TraceOp::Kind::barrier;
    } else {
      DPML_CHECK_MSG(false, where + "unknown op '" + kind + "'");
    }
    // Every op but barrier carries a size; all take an optional gap.
    const bool sized = op.kind != TraceOp::Kind::barrier;
    const std::size_t gap_at = sized ? 2 : 1;
    DPML_CHECK_MSG(tok.size() <= gap_at + 1,
                   where + "unexpected trailing token '" + tok[gap_at + 1] +
                       "'");
    if (sized) {
      DPML_CHECK_MSG(tok.size() >= 2, where + "missing size");
      const std::string& size = tok[1];
      const char* last = size.data() + size.size();
      const auto [end, ec] = std::from_chars(size.data(), last, op.bytes);
      DPML_CHECK_MSG(end == last && ec == std::errc{},
                     where + "bad size '" + size +
                         "' (expected a byte count: digits only)");
      // The reductions run on f32 elements.
      DPML_CHECK_MSG(op.kind == TraceOp::Kind::bcast || op.bytes % 4 == 0,
                     where + kind + " size " + size +
                         " is not a multiple of the 4-byte f32 element");
    }
    if (tok.size() > gap_at) {
      const std::string& gap = tok[gap_at];
      const char* last = gap.data() + gap.size();
      const auto [end, ec] = std::from_chars(gap.data(), last, op.compute_us);
      DPML_CHECK_MSG(end == last && ec == std::errc{} &&
                         std::isfinite(op.compute_us) && op.compute_us >= 0,
                     where + "bad compute gap '" + gap +
                         "' (expected non-negative microseconds)");
    }
    ops.push_back(op);
  }
  return ops;
}

std::string example_trace() {
  // Production-like mix: dominated by small allreduces with periodic
  // medium/large reductions (checkpoint norms, IO prep) — paper [24].
  std::ostringstream os;
  for (int i = 0; i < 10; ++i) {
    os << "allreduce 8 50\n";
    os << "allreduce 8 50\n";
    os << "allreduce 64 120\n";
    if (i % 2 == 0) os << "allreduce 16384 400\n";
    if (i % 5 == 0) {
      os << "allreduce 1048576 800\n";
      os << "bcast 4096 100\n";
    }
  }
  os << "barrier\n";
  os << "reduce 262144 200\n";
  return os.str();
}

ReplayResult replay_trace(const net::ClusterConfig& cfg,
                          const std::vector<TraceOp>& trace,
                          const ReplayOptions& opt) {
  check_shape("replay", cfg, opt.nodes, opt.ppn);
  require(opt.repetitions >= 1, "replay", "repetitions", ">= 1",
          opt.repetitions);
  DPML_CHECK_MSG(!trace.empty(), "replay: empty trace");
  using K = Op::Kind;
  // Each trace line: its compute gap, then the op timed on rank 0.
  Program p;
  for (int rep = 0; rep < opt.repetitions; ++rep) {
    for (const TraceOp& t : trace) {
      if (t.compute_us > 0) {
        p.push_back({.kind = K::compute, .time = sim::us(t.compute_us)});
      }
      using T = TraceOp::Kind;
      const K kind = t.kind == T::allreduce ? K::allreduce
                     : t.kind == T::reduce  ? K::reduce
                     : t.kind == T::bcast   ? K::bcast
                                            : K::barrier;
      // The reductions run on f32 elements.
      const std::size_t count = kind == K::bcast ? t.bytes : t.bytes / 4;
      p.insert(p.end(), {{.kind = K::begin},
                         {.kind = kind, .count = count},
                         {.kind = K::end}});
    }
  }
  p.push_back({.kind = K::sync});
  const auto run = run_program(cfg, opt.nodes, opt.ppn, opt.spec, 1, {p}, 1);
  return {.total_s = sim::to_seconds(run.end),
          .comm_s = sim::to_seconds(run.timers[0].total),
          .ops = run.timers[0].count,
          .engine_perf = run.engine_perf,
          .elided_bytes = run.elided_bytes};
}

}  // namespace dpml::apps
