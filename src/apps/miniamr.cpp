#include "apps/miniamr.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpml::apps {

using simmpi::Machine;
using simmpi::Rank;

namespace {

struct AmrShared {
  explicit AmrShared(sim::Engine& e, int parties) : barrier(e, parties) {}
  sim::Barrier barrier;
  sim::Time refine_total = 0;
  std::size_t total_blocks = 0;  // updated by rank 0 each step
};

sim::CoTask<void> amr_rank(Rank& r, const MiniAmrOptions& opt,
                           const core::CollSpec& spec,
                           std::shared_ptr<AmrShared> sh) {
  Machine& m = r.machine();
  const int p = m.world_size();
  util::SplitMix64 rng(opt.seed, static_cast<std::uint64_t>(r.world_rank()));
  int my_blocks = opt.blocks_per_rank;

  for (int step = 0; step < opt.refine_steps; ++step) {
    // Tagging: stencil pass over each block's cells (local compute).
    co_await r.compute(sim::us(2.0) * my_blocks);

    co_await sh->barrier.arrive_and_wait();
    const sim::Time t0 = r.engine().now();

    // Global refinement vote: one i32 tag per block across the whole mesh.
    // The vector grows with process count — the paper's reason miniAMR
    // rewards DPML's medium/large-message designs.
    const std::size_t tag_count =
        static_cast<std::size_t>(p) * opt.blocks_per_rank;
    {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = tag_count;
      a.dt = simmpi::Dtype::i32;
      a.op = simmpi::ReduceOp::max;
      a.inplace = true;
      co_await core::run_collective(core::CollKind::allreduce, a, spec);
    }
    // Two small redistribution reductions: total block count, max load.
    for (auto op : {simmpi::ReduceOp::sum, simmpi::ReduceOp::max}) {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 1;
      a.dt = simmpi::Dtype::i64;
      a.op = op;
      a.inplace = true;
      co_await core::run_collective(core::CollKind::allreduce, a, spec);
    }

    co_await sh->barrier.arrive_and_wait();
    if (r.world_rank() == 0) sh->refine_total += r.engine().now() - t0;

    // Deterministic refine/coarsen evolution.
    const auto roll = rng.next_below(100);
    if (roll < 30 && my_blocks * 2 <= opt.max_blocks_per_rank) {
      my_blocks *= 2;  // refine: split blocks into octants (capped)
    } else if (roll > 85 && my_blocks >= 2) {
      my_blocks /= 2;  // coarsen
    }
  }

  // Final census (cheap, outside the timed phase).
  co_await sh->barrier.arrive_and_wait();
  sh->total_blocks += static_cast<std::size_t>(my_blocks);
}

}  // namespace

MiniAmrResult run_miniamr(const net::ClusterConfig& cfg,
                          const MiniAmrOptions& opt) {
  DPML_CHECK(opt.refine_steps >= 1 && opt.blocks_per_rank >= 1);
  simmpi::RunOptions ropt;
  ropt.with_data = false;
  ropt.seed = opt.seed;
  Machine m(cfg, opt.nodes, opt.ppn, ropt);

  std::optional<sharp::SharpFabric> fabric;
  core::CollSpec spec = opt.spec;
  core::attach_fabric(m, core::CollKind::allreduce, spec, fabric);

  auto sh = std::make_shared<AmrShared>(m.engine(), m.world_size());
  m.run([&](Rank& r) -> sim::CoTask<void> {
    return amr_rank(r, opt, spec, sh);
  });

  MiniAmrResult res;
  res.total_s = sim::to_seconds(m.now());
  res.refine_s = sim::to_seconds(sh->refine_total);
  res.per_step_us = sim::to_us(sh->refine_total) / opt.refine_steps;
  res.final_blocks = sh->total_blocks;
  return res;
}

}  // namespace dpml::apps
