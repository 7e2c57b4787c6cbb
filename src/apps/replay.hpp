// Collective-trace replay.
//
// Rabenseifner's production profiling (paper [24]: 37% of MPI time in
// MPI_Allreduce across five years of production jobs) motivates replaying
// *measured* collective mixes rather than synthetic sweeps. A trace is a
// plain-text script of collective operations with message sizes and
// inter-op compute gaps; the replayer runs it under any allreduce design so
// users can evaluate DPML on their own application's mix.
//
// Trace format (one op per line, '#' comments):
//   allreduce <bytes> [compute_us]
//   reduce    <bytes> [compute_us]
//   bcast     <bytes> [compute_us]
//   barrier   [compute_us]
// `compute_us` is local work charged before the operation (default 0).
// Sizes are byte counts (digits only; allreduce/reduce sizes a multiple of
// the 4-byte f32 element) and gaps non-negative microseconds.
#pragma once

#include <string>
#include <vector>

#include "core/api.hpp"
#include "net/cluster.hpp"

namespace dpml::apps {

struct TraceOp {
  enum class Kind { allreduce, reduce, bcast, barrier };
  Kind kind = Kind::allreduce;
  std::size_t bytes = 0;
  double compute_us = 0.0;
};

// Parse a trace script. Throws util::InvariantError on malformed lines,
// naming the line and the bad field.
std::vector<TraceOp> parse_trace(const std::string& text);

// A synthetic production-like mix (allreduce-heavy, per the paper's [24]):
// many small allreduces, some medium, occasional large, sprinkled with
// bcasts and barriers.
std::string example_trace();

struct ReplayOptions {
  int nodes = 4;
  int ppn = 8;
  int repetitions = 1;          // replay the trace this many times
  core::CollSpec spec{.algo = "dpml"};  // design used for the reductions
};

struct ReplayResult {
  double total_s = 0.0;
  double comm_s = 0.0;  // time in collectives (rank 0)
  int ops = 0;
};

ReplayResult replay_trace(const net::ClusterConfig& cfg,
                          const std::vector<TraceOp>& trace,
                          const ReplayOptions& opt);

}  // namespace dpml::apps
