#include "apps/stencil.hpp"

#include <cmath>

#include "apps/program.hpp"
#include "util/error.hpp"

namespace dpml::apps {

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

StencilResult run_stencil(const net::ClusterConfig& cfg,
                          const StencilOptions& opt) {
  const int p = check_shape("stencil", cfg, opt.nodes, opt.ppn);
  require(opt.sweeps >= 1, "stencil", "sweeps", ">= 1", opt.sweeps);
  require(opt.check_every >= 1, "stencil", "check_every", ">= 1",
          opt.check_every);
  using K = Op::Kind;
  const auto [gx, gy, gz] = process_grid(p);
  DPML_CHECK(gx * gy * gz == p);
  const std::size_t face = opt.local_dim * opt.local_dim * opt.elem_bytes;
  // Jacobi sweep: 7-point stencil over local_dim^3 cells, memory bound.
  const double sweep_bytes = 8.0 * static_cast<double>(opt.local_dim) *
                             static_cast<double>(opt.local_dim) *
                             static_cast<double>(opt.local_dim) *
                             static_cast<double>(opt.elem_bytes) / 4.0;
  const sim::Time sweep_compute =
      sim::from_seconds(sweep_bytes / (cfg.host.copy_bw * 1e9));
  // Residual check (timer 1): an 8-byte f64 sum.
  const Program check = {
      {.kind = K::begin, .timer = 1},
      {.kind = K::allreduce, .dt = simmpi::Dtype::f64, .count = 1},
      {.kind = K::end, .timer = 1}};
  const int deltas[6][3] = {{-1, 0, 0}, {1, 0, 0},  {0, -1, 0},
                            {0, 1, 0},  {0, 0, -1}, {0, 0, 1}};

  std::vector<Program> programs(static_cast<std::size_t>(p));
  for (int me = 0; me < p; ++me) {
    const int x = me % gx;
    const int y = (me / gx) % gy;
    const int z = me / (gx * gy);
    // Halo exchange (timer 0): up to 6 neighbours, non-blocking both ways,
    // waitall.
    Program halo = {{.kind = K::begin}};
    int dir = 0;
    for (const auto& d : deltas) {
      const int nx = x + d[0];
      const int ny = y + d[1];
      const int nz = z + d[2];
      ++dir;
      if (nx < 0 || nx >= gx || ny < 0 || ny >= gy || nz < 0 || nz >= gz) {
        continue;  // physical boundary
      }
      const int peer = nx + gx * (ny + gy * nz);
      // Tag by direction so opposite faces do not cross-match; the peer's
      // matching recv uses the mirrored direction index.
      const int mirrored = dir % 2 == 0 ? dir - 1 : dir + 1;
      halo.push_back(
          {.kind = K::isend, .peer = peer, .tag = 8000 + dir, .count = face});
      halo.push_back({.kind = K::irecv,
                      .peer = peer,
                      .tag = 8000 + mirrored,
                      .count = face});
    }
    halo.insert(halo.end(), {{.kind = K::waitall}, {.kind = K::end}});

    Program& prog = programs[static_cast<std::size_t>(me)];
    for (int sweep = 0; sweep < opt.sweeps; ++sweep) {
      prog.insert(prog.end(), halo.begin(), halo.end());
      prog.push_back({.kind = K::compute, .time = sweep_compute});
      if ((sweep + 1) % opt.check_every == 0) {
        prog.insert(prog.end(), check.begin(), check.end());
      }
    }
    prog.push_back({.kind = K::sync});
  }
  const auto run =
      run_program(cfg, opt.nodes, opt.ppn, opt.spec, 1, programs, 2);
  return {.total_s = sim::to_seconds(run.end),
          .halo_s = sim::to_seconds(run.timers[0].total),
          .allreduce_s = sim::to_seconds(run.timers[1].total),
          .residual_checks = run.timers[1].count,
          .grid = {gx, gy, gz}};
}

}  // namespace dpml::apps
