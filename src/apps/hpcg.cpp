#include "apps/hpcg.hpp"

#include "apps/program.hpp"

namespace dpml::apps {

HpcgResult run_hpcg(const net::ClusterConfig& cfg, const HpcgOptions& opt) {
  check_shape("hpcg", cfg, opt.nodes, opt.ppn);
  require(opt.iterations >= 1, "hpcg", "iterations", ">= 1", opt.iterations);
  using K = Op::Kind;
  // Local compute charges, derived from the 27-point stencil shape: SpMV
  // touches ~27 nonzeros per row (value + column index); DDOT streams two
  // vectors of 8-byte values.
  const double rows = static_cast<double>(opt.rows_per_rank);
  const sim::Time t_spmv = sim::from_seconds(
      rows * 27.0 * 12.0 / (cfg.host.mem_agg_bw * 1e9 / 4.0));
  const sim::Time t_dot =
      sim::from_seconds(rows * 2.0 * 8.0 / (cfg.host.copy_bw * 1e9));
  Program p;
  for (int it = 0; it < opt.iterations; ++it) {
    // SpMV + vector updates: local work only.
    p.push_back({.kind = K::compute, .time = t_spmv});
    // Three DDOTs per CG iteration (rtz, pAp, convergence norm), each a
    // local dot and an 8-byte f64 sum, timed between two syncs.
    for (int d = 0; d < 3; ++d) {
      p.insert(p.end(),
               {{.kind = K::sync},
                {.kind = K::begin},
                {.kind = K::compute, .time = t_dot},
                {.kind = K::allreduce, .dt = simmpi::Dtype::f64, .count = 1},
                {.kind = K::sync},
                {.kind = K::end}});
    }
  }
  const auto run =
      run_program(cfg, opt.nodes, opt.ppn, opt.spec, opt.seed, {p}, 1);
  const Timer& ddot = run.timers[0];
  return {.total_s = sim::to_seconds(run.end),
          .ddot_s = sim::to_seconds(ddot.total),
          .ddot_avg_us = sim::to_us(ddot.total) / ddot.count,
          .ddots = ddot.count};
}

}  // namespace dpml::apps
