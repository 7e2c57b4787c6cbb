// miniAMR-like adaptive mesh refinement kernel (paper §6.6, Figure 11b/c).
//
// Reproduces the communication pattern of miniAMR's mesh-refinement phase,
// which the paper configures to dominate (>98% of) runtime: every
// refinement step, each rank evaluates its blocks' refinement tags (local
// compute), then the job performs
//   * a large MPI_Allreduce over the per-block tag vector, whose size grows
//     with the total number of blocks (i.e. with the process count — this is
//     why miniAMR exercises DPML's medium/large-message strength), and
//   * two small allreduces (global block count, max load) used for
//     redistribution decisions.
// Block counts evolve with a seeded, deterministic refine/coarsen process.
#pragma once

#include <cstdint>

#include "core/api.hpp"
#include "net/cluster.hpp"

namespace dpml::apps {

struct MiniAmrOptions {
  int nodes = 2;
  int ppn = 28;
  int refine_steps = 20;
  int blocks_per_rank = 8;     // initial blocks per rank
  int max_blocks_per_rank = 64;
  core::CollSpec spec{.algo = "dpml"};
  std::uint64_t seed = 7;
};

struct MiniAmrResult {
  double total_s = 0.0;         // simulated wall-clock
  double refine_s = 0.0;        // time in the refinement phase (the paper's
                                // "overall Mesh Refinement time")
  double per_step_us = 0.0;
  std::size_t final_blocks = 0;  // total blocks after the run
};

MiniAmrResult run_miniamr(const net::ClusterConfig& cfg,
                          const MiniAmrOptions& opt);

}  // namespace dpml::apps
