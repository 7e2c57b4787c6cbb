// 3D stencil / halo-exchange kernel with global convergence checks.
//
// The classic traditional-HPC workload from the paper's motivation
// ("small message allreduce is popular in traditional scientific MPI
// applications"): a 3D Jacobi-style iteration on a block-decomposed grid.
// Each sweep exchanges six face halos with neighbours (point-to-point,
// exercising the transport's densest nearest-neighbour pattern) and every
// `check_every` sweeps performs an 8-byte MPI_SUM allreduce for the
// residual — the small-message reduction SHArP accelerates.
#pragma once

#include <array>
#include <cstdint>

#include "core/api.hpp"
#include "net/cluster.hpp"

namespace dpml::apps {

struct StencilOptions {
  int nodes = 4;
  int ppn = 8;
  int sweeps = 20;
  int check_every = 4;              // residual allreduce cadence
  std::size_t local_dim = 64;       // local subdomain edge (cells)
  std::size_t elem_bytes = 8;       // f64 cells
  core::CollSpec spec{.algo = "dpml"};  // design for the residual allreduce
};

struct StencilResult {
  double total_s = 0.0;
  double halo_s = 0.0;       // time in halo exchanges (rank 0)
  double allreduce_s = 0.0;  // time in residual reductions (rank 0)
  int residual_checks = 0;
  std::array<int, 3> grid{};  // process grid used
};

// Factor `p` into a near-cubic 3D process grid.
std::array<int, 3> process_grid(int p);

StencilResult run_stencil(const net::ClusterConfig& cfg,
                          const StencilOptions& opt);

}  // namespace dpml::apps
