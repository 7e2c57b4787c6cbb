// osu_mbw_mr-style multi-pair bandwidth / message-rate microbenchmark
// (paper §3, Figure 1). Measures aggregate throughput of `pairs` concurrent
// sender/receiver pairs, either within one node or across two nodes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/cluster.hpp"
#include "sim/engine.hpp"

namespace dpml::core {
struct PerfReport;
}  // namespace dpml::core

namespace dpml::apps {

struct MbwMrOptions {
  int pairs = 1;
  std::size_t bytes = 1;
  int window = 16;       // messages per pair per iteration
  int iterations = 4;
  bool intra_node = false;
};

struct MbwMrResult {
  double mb_per_s = 0.0;       // aggregate bandwidth (decimal MB/s)
  double msg_per_s = 0.0;      // aggregate message rate
  double seconds = 0.0;        // simulated wall-clock of the measured phase
  sim::EnginePerf engine_perf;     // the run's engine counters (perf reports)
  std::uint64_t elided_bytes = 0;  // payload bytes it elided
};

MbwMrResult osu_mbw_mr(const net::ClusterConfig& cfg, const MbwMrOptions& opt);

// Relative throughput of `pairs` pairs vs one pair (the quantity Figure 1
// plots). With `perf`, the two runs fold into it as one point.
double relative_throughput(const net::ClusterConfig& cfg, int pairs,
                           std::size_t bytes, bool intra_node,
                           core::PerfReport* perf = nullptr);

// osu_latency-style pingpong: one-way latency in seconds between two ranks
// (same socket when intra_node, otherwise across two nodes).
double osu_latency(const net::ClusterConfig& cfg, std::size_t bytes,
                   bool intra_node = false, int iterations = 16);

}  // namespace dpml::apps
