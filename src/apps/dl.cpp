#include "apps/dl.hpp"

#include "apps/program.hpp"

namespace dpml::apps {

DlResult run_dl_training(const net::ClusterConfig& cfg, const DlOptions& opt) {
  check_shape("dl", cfg, opt.nodes, opt.ppn);
  require(opt.steps >= 1, "dl", "steps", ">= 1", opt.steps);
  require(opt.buckets >= 1, "dl", "buckets", ">= 1", opt.buckets);
  require(opt.bucket_bytes % 4 == 0, "dl", "bucket_bytes",
          "a multiple of the 4-byte f32 element",
          static_cast<long long>(opt.bucket_bytes));
  using K = Op::Kind;
  // Timer 0 spans the step; timer 1 ends once every gradient is global.
  Program p;
  for (int step = 0; step < opt.steps; ++step) {
    p.insert(p.end(), {{.kind = K::sync},
                       {.kind = K::begin, .timer = 0},
                       {.kind = K::begin, .timer = 1}});
    for (int b = 0; b < opt.buckets; ++b) {
      // Backprop for this bucket's layers, then its gradient allreduce in a
      // disjoint tag space per in-flight op.
      p.push_back({.kind = K::compute, .time = opt.backprop_per_bucket});
      p.push_back({.kind = opt.overlap ? K::iallreduce : K::allreduce,
                   .tag = (b % 128) * 256,
                   .count = opt.bucket_bytes / 4});
    }
    if (opt.overlap) p.push_back({.kind = K::waitall});
    // Optimizer update once all gradients are global.
    p.insert(p.end(), {{.kind = K::end, .timer = 1},
                       {.kind = K::compute, .time = opt.optimizer_time},
                       {.kind = K::sync},
                       {.kind = K::end, .timer = 0}});
  }
  const auto run = run_program(cfg, opt.nodes, opt.ppn, opt.spec, 1, {p}, 2);
  // Communication not hidden by backprop compute.
  const sim::Time exposed = run.timers[1].total -
                            opt.backprop_per_bucket * opt.buckets * opt.steps;
  return {.step_s = sim::to_seconds(run.timers[0].total) / opt.steps,
          .total_s = sim::to_seconds(run.end),
          .exposed_comm_s = sim::to_seconds(exposed) / opt.steps};
}

}  // namespace dpml::apps
