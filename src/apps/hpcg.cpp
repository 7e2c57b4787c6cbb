#include "apps/hpcg.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "util/error.hpp"

namespace dpml::apps {

using simmpi::Machine;
using simmpi::Rank;

namespace {

struct HpcgShared {
  explicit HpcgShared(sim::Engine& e, int parties) : barrier(e, parties) {}
  sim::Barrier barrier;
  sim::Time ddot_total = 0;  // accumulated by rank 0
  int ddots = 0;
};

// Local compute charges, derived from the 27-point stencil shape: SpMV
// touches ~27 nonzeros per row; DDOT streams two vectors of 8-byte values.
sim::Time spmv_time(const net::ClusterConfig& cfg, std::size_t rows) {
  const double bytes = static_cast<double>(rows) * 27.0 * 12.0;  // val+col
  return sim::from_seconds(bytes / (cfg.host.mem_agg_bw * 1e9 / 4.0));
}

sim::Time local_dot_time(const net::ClusterConfig& cfg, std::size_t rows) {
  const double bytes = static_cast<double>(rows) * 2.0 * 8.0;
  return sim::from_seconds(bytes / (cfg.host.copy_bw * 1e9));
}

sim::CoTask<void> hpcg_rank(Rank& r, const HpcgOptions& opt,
                            const core::CollSpec& spec,
                            std::shared_ptr<HpcgShared> sh, double* recv_buf) {
  Machine& m = r.machine();
  const auto& cfg = m.config();
  const sim::Time t_spmv = spmv_time(cfg, opt.rows_per_rank);
  const sim::Time t_dot = local_dot_time(cfg, opt.rows_per_rank);

  for (int it = 0; it < opt.iterations; ++it) {
    // SpMV + vector updates: local work only.
    co_await r.compute(t_spmv);
    // Three DDOTs per CG iteration (rtz, pAp, convergence norm).
    for (int d = 0; d < 3; ++d) {
      co_await sh->barrier.arrive_and_wait();
      const sim::Time t0 = r.engine().now();
      co_await r.compute(t_dot);
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 1;
      a.dt = simmpi::Dtype::f64;
      a.op = simmpi::ReduceOp::sum;
      a.recv = recv_buf != nullptr
                   ? simmpi::MutBytes{reinterpret_cast<std::byte*>(recv_buf), 8}
                   : simmpi::MutBytes{};
      a.inplace = true;
      co_await core::run_collective(core::CollKind::allreduce, a, spec);
      co_await sh->barrier.arrive_and_wait();
      if (r.world_rank() == 0) {
        sh->ddot_total += r.engine().now() - t0;
        ++sh->ddots;
      }
    }
  }
}

}  // namespace

HpcgResult run_hpcg(const net::ClusterConfig& cfg, const HpcgOptions& opt) {
  DPML_CHECK(opt.iterations >= 1);
  simmpi::RunOptions ropt;
  ropt.with_data = false;
  ropt.seed = opt.seed;
  Machine m(cfg, opt.nodes, opt.ppn, ropt);

  std::optional<sharp::SharpFabric> fabric;
  core::CollSpec spec = opt.spec;
  core::attach_fabric(m, core::CollKind::allreduce, spec, fabric);

  auto sh = std::make_shared<HpcgShared>(m.engine(), m.world_size());
  m.run([&](Rank& r) -> sim::CoTask<void> {
    return hpcg_rank(r, opt, spec, sh, nullptr);
  });

  HpcgResult res;
  res.total_s = sim::to_seconds(m.now());
  res.ddot_s = sim::to_seconds(sh->ddot_total);
  res.ddots = sh->ddots;
  res.ddot_avg_us = res.ddots > 0 ? sim::to_us(sh->ddot_total) / res.ddots : 0;
  return res;
}

}  // namespace dpml::apps
