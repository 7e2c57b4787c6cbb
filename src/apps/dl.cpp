#include "apps/dl.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "util/error.hpp"

namespace dpml::apps {

using simmpi::Machine;
using simmpi::Rank;

namespace {

struct DlShared {
  explicit DlShared(sim::Engine& e, int parties) : barrier(e, parties) {}
  sim::Barrier barrier;
  sim::Time step_total = 0;
  sim::Time exposed_comm = 0;
};

sim::CoTask<void> dl_rank(Rank& r, const DlOptions& opt,
                          const core::CollSpec& spec,
                          std::shared_ptr<DlShared> sh) {
  Machine& m = r.machine();
  const std::size_t count = opt.bucket_bytes / 4;

  for (int step = 0; step < opt.steps; ++step) {
    co_await sh->barrier.arrive_and_wait();
    const sim::Time t0 = r.engine().now();

    std::vector<std::shared_ptr<sim::Flag>> pending;
    pending.reserve(static_cast<std::size_t>(opt.buckets));
    for (int b = 0; b < opt.buckets; ++b) {
      // Backprop for this bucket's layers.
      co_await r.compute(opt.backprop_per_bucket);
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = count;
      a.inplace = true;
      a.tag_base = (b % 128) * 256;  // disjoint tag space per in-flight op
      if (opt.overlap) {
        pending.push_back(
            core::start_collective(core::CollKind::allreduce, a, spec));
      } else {
        co_await core::run_collective(core::CollKind::allreduce, a, spec);
      }
    }
    if (opt.overlap) {
      co_await sim::wait_all(std::move(pending));
      pending.clear();
    }
    const sim::Time grads_done = r.engine().now();
    // Optimizer update once all gradients are global.
    co_await r.compute(opt.optimizer_time);

    co_await sh->barrier.arrive_and_wait();
    if (r.world_rank() == 0) {
      sh->step_total += r.engine().now() - t0;
      // Communication not hidden by backprop compute.
      sh->exposed_comm +=
          (grads_done - t0) - opt.backprop_per_bucket * opt.buckets;
    }
  }
}

}  // namespace

DlResult run_dl_training(const net::ClusterConfig& cfg, const DlOptions& opt) {
  DPML_CHECK(opt.steps >= 1 && opt.buckets >= 1);
  DPML_CHECK_MSG(opt.bucket_bytes % 4 == 0, "bucket bytes must be f32-sized");
  simmpi::RunOptions ropt;
  ropt.with_data = false;
  Machine m(cfg, opt.nodes, opt.ppn, ropt);

  std::optional<sharp::SharpFabric> fabric;
  core::CollSpec spec = opt.spec;
  core::attach_fabric(m, core::CollKind::allreduce, spec, fabric);

  auto sh = std::make_shared<DlShared>(m.engine(), m.world_size());
  m.run([&](Rank& r) -> sim::CoTask<void> {
    return dl_rank(r, opt, spec, sh);
  });

  DlResult res;
  res.total_s = sim::to_seconds(m.now());
  res.step_s = sim::to_seconds(sh->step_total) / opt.steps;
  res.exposed_comm_s = sim::to_seconds(sh->exposed_comm) / opt.steps;
  return res;
}

}  // namespace dpml::apps
