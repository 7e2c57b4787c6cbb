// Figure 9: MPI_Allreduce latency of the proposed design (per-size tuned
// DPML configuration, as in paper §6.4) against the library baselines:
//   (a) cluster A, 448 procs (16x28)  — vs MVAPICH2-like
//   (b) cluster B, 1792 procs (64x28) — vs MVAPICH2-like
//   (c) cluster C, 1792 procs (64x28) — vs MVAPICH2-like and IntelMPI-like
//   (d) cluster D, 1024 procs (32x32) — vs MVAPICH2-like and IntelMPI-like
//
// Expected shapes: proposed <= both baselines across the range; largest
// gains for medium/large messages (paper: up to 3.59x/3.08x vs MVAPICH2 on
// A/B; up to 2.98x/2.3x vs Intel MPI on C/D).
#include <optional>

#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

namespace {

using namespace dpml;

struct Panel {
  const char* name;
  net::ClusterConfig cfg;
  int nodes;
  int ppn;
  bool include_intel;
  benchx::SeriesStore store;
};

// Per-size tuned configuration (the paper's empirical best-config search).
double tuned_latency(const net::ClusterConfig& cfg, int nodes, int ppn,
                     std::size_t bytes) {
  const auto r = core::tune_collective(coll::CollKind::allreduce, cfg, nodes,
                                       ppn, bytes, benchx::default_opts());
  return r.best.avg_us;
}

}  // namespace

int main(int argc, char** argv) {
  Panel panels[] = {
      {"Fig 9(a) cluster A, 448 procs", net::cluster_a(), 16, 28, false, {}},
      {"Fig 9(b) cluster B, 1792 procs", net::cluster_b(), 64, 28, false, {}},
      {"Fig 9(c) cluster C, 1792 procs", net::cluster_c(), 64, 28, true, {}},
      {"Fig 9(d) cluster D, 1024 procs", net::cluster_d(), 32, 32, true, {}},
  };

  for (Panel& p : panels) {
    for (std::size_t bytes : benchx::paper_sizes()) {
      const std::string row = util::format_bytes(bytes);
      const std::string base = std::string("fig09/") + p.cfg.name +
                               "/bytes:" + row;
      benchx::register_point(base + "/proposed", p.store, row, "proposed",
                             [&p, bytes](core::PerfReport&) {
                               return tuned_latency(p.cfg, p.nodes, p.ppn,
                                                    bytes);
                             });
      coll::CollSpec mv;
      mv.algo = "mvapich2";
      benchx::register_point(base + "/mvapich2", p.store, row, "mvapich2",
                             [&p, bytes, mv](core::PerfReport& perf) {
                               return benchx::latency_us(p.cfg, p.nodes, p.ppn,
                                                         bytes, mv, perf);
                             });
      if (p.include_intel) {
        coll::CollSpec im;
        im.algo = "intelmpi";
        benchx::register_point(base + "/intelmpi", p.store, row, "intelmpi",
                               [&p, bytes, im](core::PerfReport& perf) {
                                 return benchx::latency_us(p.cfg, p.nodes,
                                                           p.ppn, bytes, im,
                                                           perf);
                               });
      }
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  for (const Panel& p : panels) {
    p.store.print(std::string(p.name) + " — MPI_Allreduce latency (us)",
                  "msg size");
    double best_gain = 0;
    std::string best_size;
    for (std::size_t bytes : benchx::paper_sizes()) {
      const std::string row = util::format_bytes(bytes);
      const double gain =
          p.store.at(row, "mvapich2") / p.store.at(row, "proposed");
      if (gain > best_gain) {
        best_gain = gain;
        best_size = row;
      }
    }
    std::cout << "\nmax speedup vs mvapich2 on " << p.cfg.name << ": "
              << best_gain << "x at " << best_size << "\n";
  }
  return rc;
}
