#include "apps/miniamr.hpp"

#include "apps/program.hpp"
#include "util/rng.hpp"

namespace dpml::apps {

MiniAmrResult run_miniamr(const net::ClusterConfig& cfg,
                          const MiniAmrOptions& opt) {
  const int p = check_shape("miniamr", cfg, opt.nodes, opt.ppn);
  require(opt.refine_steps >= 1, "miniamr", "refine_steps", ">= 1",
          opt.refine_steps);
  require(opt.blocks_per_rank >= 1, "miniamr", "blocks_per_rank", ">= 1",
          opt.blocks_per_rank);
  using K = Op::Kind;
  using simmpi::Dtype;
  using simmpi::ReduceOp;
  // The timed refinement phase of every step. Global refinement vote: one
  // i32 tag per block across the whole mesh. The vector grows with process
  // count — the paper's reason miniAMR rewards DPML's medium/large-message
  // designs. Then two small redistribution reductions: total block count,
  // max load.
  const Program refine = {
      {.kind = K::sync},
      {.kind = K::begin},
      {.kind = K::allreduce,
       .dt = Dtype::i32,
       .op = ReduceOp::max,
       .count = static_cast<std::size_t>(p) * opt.blocks_per_rank},
      {.kind = K::allreduce, .dt = Dtype::i64, .count = 1},
      {.kind = K::allreduce, .dt = Dtype::i64, .op = ReduceOp::max, .count = 1},
      {.kind = K::sync},
      {.kind = K::end}};

  // Block counts, and so each rank's tagging compute, evolve with a seeded
  // per-rank refine/coarsen process.
  std::vector<Program> programs(static_cast<std::size_t>(p));
  std::size_t total_blocks = 0;
  for (int w = 0; w < p; ++w) {
    Program& prog = programs[static_cast<std::size_t>(w)];
    prog.reserve(static_cast<std::size_t>(opt.refine_steps) *
                     (refine.size() + 1) + 1);
    util::SplitMix64 rng(opt.seed, static_cast<std::uint64_t>(w));
    int my_blocks = opt.blocks_per_rank;
    for (int step = 0; step < opt.refine_steps; ++step) {
      // Tagging: stencil pass over each block's cells (local compute).
      prog.push_back({.kind = K::compute, .time = sim::us(2.0) * my_blocks});
      prog.insert(prog.end(), refine.begin(), refine.end());

      const auto roll = rng.next_below(100);
      if (roll < 30 && my_blocks * 2 <= opt.max_blocks_per_rank) {
        my_blocks *= 2;  // refine: split blocks into octants (capped)
      } else if (roll > 85 && my_blocks >= 2) {
        my_blocks /= 2;  // coarsen
      }
    }
    prog.push_back({.kind = K::sync});  // final census, outside the timer
    total_blocks += static_cast<std::size_t>(my_blocks);
  }
  const auto run =
      run_program(cfg, opt.nodes, opt.ppn, opt.spec, opt.seed, programs, 1);
  return {.total_s = sim::to_seconds(run.end),
          .refine_s = sim::to_seconds(run.timers[0].total),
          .per_step_us = sim::to_us(run.timers[0].total) / opt.refine_steps,
          .final_blocks = total_blocks,
          .engine_perf = run.engine_perf,
          .elided_bytes = run.elided_bytes};
}

}  // namespace dpml::apps
