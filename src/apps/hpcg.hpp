// HPCG-like conjugate-gradient kernel (paper §6.5, Figure 11a).
//
// HPCG's communication-relevant structure for this experiment is the DDOT:
// each CG iteration performs three global dot products — a local
// multiply-accumulate over the rank's rows followed by an 8-byte MPI_SUM
// allreduce over MPI_DOUBLE. The paper times the DDOT component under weak
// scaling (fixed rows per rank, growing process count) and compares the
// host-based reduction against the SHArP node-/socket-leader designs.
//
// The SpMV/WAXPBY compute phases are charged as local time (they shape how
// allreduce arrivals skew) but involve no communication, matching the
// experiment's focus.
#pragma once

#include <cstdint>

#include "core/api.hpp"
#include "net/cluster.hpp"

namespace dpml::apps {

struct HpcgOptions {
  int nodes = 2;
  int ppn = 28;
  int iterations = 50;            // CG iterations
  std::size_t rows_per_rank = 16 * 16 * 16;  // weak-scaling local problem
  core::CollSpec spec{.algo = "dpml"};  // reduction design for the DDOTs
  std::uint64_t seed = 1;
};

struct HpcgResult {
  double total_s = 0.0;       // simulated wall-clock of the CG loop
  double ddot_s = 0.0;        // time inside DDOT (local dot + allreduce)
  double ddot_avg_us = 0.0;   // average per-DDOT latency
  int ddots = 0;
};

HpcgResult run_hpcg(const net::ClusterConfig& cfg, const HpcgOptions& opt);

}  // namespace dpml::apps
