#include "apps/stencil.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "util/error.hpp"

namespace dpml::apps {

using simmpi::Machine;
using simmpi::Rank;

std::array<int, 3> process_grid(int p) {
  DPML_CHECK(p >= 1);
  // Greedy near-cubic factorization: repeatedly divide by the largest
  // factor <= cube root of the remainder.
  std::array<int, 3> dims{1, 1, 1};
  int rem = p;
  for (int axis = 0; axis < 3; ++axis) {
    const int want = static_cast<int>(
        std::round(std::pow(static_cast<double>(rem), 1.0 / (3 - axis))));
    int best = 1;
    for (int f = 1; f <= rem && f <= want + 1; ++f) {
      if (rem % f == 0) best = f;
    }
    dims[static_cast<std::size_t>(axis)] = best;
    rem /= best;
  }
  dims[2] *= rem;  // anything left (primes) goes to the last axis
  return dims;
}

namespace {

struct StencilShared {
  explicit StencilShared(sim::Engine& e, int parties) : barrier(e, parties) {}
  sim::Barrier barrier;
  sim::Time halo = 0;
  sim::Time allreduce = 0;
  int checks = 0;
};

sim::CoTask<void> stencil_rank(Rank& r, const StencilOptions& opt,
                               const core::CollSpec& spec,
                               std::array<int, 3> grid,
                               std::shared_ptr<StencilShared> sh) {
  Machine& m = r.machine();
  const int me = r.world_rank();
  const int gx = grid[0];
  const int gy = grid[1];
  const int gz = grid[2];
  const int x = me % gx;
  const int y = (me / gx) % gy;
  const int z = me / (gx * gy);
  const std::size_t face_bytes =
      opt.local_dim * opt.local_dim * opt.elem_bytes;
  // Jacobi sweep: 7-point stencil over local_dim^3 cells, memory bound.
  const double sweep_bytes = 8.0 * static_cast<double>(opt.local_dim) *
                             static_cast<double>(opt.local_dim) *
                             static_cast<double>(opt.local_dim) *
                             static_cast<double>(opt.elem_bytes) / 4.0;
  const sim::Time sweep_compute =
      sim::from_seconds(sweep_bytes / (m.config().host.copy_bw * 1e9));

  auto rank_at = [&](int xx, int yy, int zz) {
    return xx + gx * (yy + gy * zz);
  };

  for (int sweep = 0; sweep < opt.sweeps; ++sweep) {
    // Halo exchange: up to 6 neighbours, non-blocking both ways, waitall.
    const sim::Time t_halo0 = r.engine().now();
    std::vector<std::shared_ptr<sim::Flag>> pending;
    int dir = 0;
    const int deltas[6][3] = {{-1, 0, 0}, {1, 0, 0},  {0, -1, 0},
                              {0, 1, 0},  {0, 0, -1}, {0, 0, 1}};
    for (const auto& d : deltas) {
      const int nx = x + d[0];
      const int ny = y + d[1];
      const int nz = z + d[2];
      ++dir;
      if (nx < 0 || nx >= gx || ny < 0 || ny >= gy || nz < 0 || nz >= gz) {
        continue;  // physical boundary
      }
      const int peer = rank_at(nx, ny, nz);
      // Tag by direction so opposite faces do not cross-match; the peer's
      // matching recv uses the mirrored direction index.
      const int mirrored = dir % 2 == 0 ? dir - 1 : dir + 1;
      pending.push_back(r.isend(m.world(), peer, 8000 + dir, face_bytes));
      auto h = r.irecv(m.world(), peer, 8000 + mirrored, face_bytes);
      pending.push_back(h.done);
    }
    co_await sim::wait_all(std::move(pending));
    if (me == 0) sh->halo += r.engine().now() - t_halo0;

    co_await r.compute(sweep_compute);

    if ((sweep + 1) % opt.check_every == 0) {
      const sim::Time t_ar0 = r.engine().now();
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 1;
      a.dt = simmpi::Dtype::f64;
      a.op = simmpi::ReduceOp::sum;
      a.inplace = true;
      co_await core::run_collective(core::CollKind::allreduce, a, spec);
      if (me == 0) {
        sh->allreduce += r.engine().now() - t_ar0;
        ++sh->checks;
      }
    }
  }
  co_await sh->barrier.arrive_and_wait();
}

}  // namespace

StencilResult run_stencil(const net::ClusterConfig& cfg,
                          const StencilOptions& opt) {
  DPML_CHECK(opt.sweeps >= 1 && opt.check_every >= 1);
  simmpi::RunOptions ropt;
  ropt.with_data = false;
  Machine m(cfg, opt.nodes, opt.ppn, ropt);
  const auto grid = process_grid(m.world_size());
  DPML_CHECK(grid[0] * grid[1] * grid[2] == m.world_size());

  std::optional<sharp::SharpFabric> fabric;
  core::CollSpec spec = opt.spec;
  core::attach_fabric(m, core::CollKind::allreduce, spec, fabric);

  auto sh = std::make_shared<StencilShared>(m.engine(), m.world_size());
  m.run([&](Rank& r) -> sim::CoTask<void> {
    return stencil_rank(r, opt, spec, grid, sh);
  });

  StencilResult res;
  res.total_s = sim::to_seconds(m.now());
  res.halo_s = sim::to_seconds(sh->halo);
  res.allreduce_s = sim::to_seconds(sh->allreduce);
  res.residual_checks = sh->checks;
  res.grid = grid;
  return res;
}

}  // namespace dpml::apps
