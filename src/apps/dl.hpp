// Data-parallel deep-learning gradient synchronization kernel.
//
// The paper's introduction motivates medium/large-message allreduce with
// deep learning ("many applications in newer fields such as deep learning
// applications extensively use medium and large message reductions"). This
// kernel models synchronous data-parallel SGD the way DL frameworks drive
// MPI: backpropagation produces gradient buckets back-to-front; each bucket
// is allreduced as soon as it is ready — non-blocking and overlapped with
// the remaining backprop compute when `overlap` is set — followed by a
// waitall and the optimizer step.
#pragma once

#include <cstdint>

#include "core/api.hpp"
#include "net/cluster.hpp"

namespace dpml::apps {

struct DlOptions {
  int nodes = 4;
  int ppn = 28;
  int steps = 4;                       // training iterations
  int buckets = 16;                    // gradient fusion buckets
  std::size_t bucket_bytes = 4 << 20;  // f32 gradient bytes per bucket
  sim::Time backprop_per_bucket = sim::us(300.0);  // compute per bucket
  sim::Time optimizer_time = sim::us(500.0);
  bool overlap = true;                 // iallreduce during backprop
  core::CollSpec spec{.algo = "dpml"};
};

struct DlResult {
  double step_s = 0.0;        // average time per training step
  double total_s = 0.0;
  double exposed_comm_s = 0.0;  // per-step communication not hidden by compute
  sim::EnginePerf engine_perf;     // the run's engine counters (perf reports)
  std::uint64_t elided_bytes = 0;  // payload bytes it elided
};

DlResult run_dl_training(const net::ClusterConfig& cfg, const DlOptions& opt);

}  // namespace dpml::apps
