// Figure 11(a): HPCG DDOT timing with the SHArP-based designs on cluster A
// at 56, 224, and 448 processes (28 ppn; weak scaling).
//
// Expected shape (paper §6.5): node-leader and socket-leader SHArP designs
// improve DDOT time over the host-based scheme (up to ~35% at 56 procs),
// with the percentage shrinking as the process count grows (the allreduce
// count argument is fixed, so reduction time matters relatively less).
#include "apps/hpcg.hpp"
#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

int main(int argc, char** argv) {
  using namespace dpml;
  const auto cfg = net::cluster_a();
  static benchx::SeriesStore store;

  struct Design {
    const char* label;
    const char* algo;
  };
  const Design designs[] = {
      {"host-based", "mvapich2"},
      {"node-leader", "sharp-node-leader"},
      {"socket-leader", "sharp-socket-leader"},
  };
  const int node_counts[] = {2, 8, 16};  // 56, 224, 448 procs at 28 ppn

  for (int nodes : node_counts) {
    for (const Design& d : designs) {
      const std::string row = std::to_string(nodes * 28) + " procs";
      benchx::register_point(
          std::string("fig11a/procs:") + std::to_string(nodes * 28) + "/" +
              d.label,
          store, row, d.label, [=](core::PerfReport&) {
            apps::HpcgOptions o;
            o.nodes = nodes;
            o.ppn = 28;
            o.iterations = 25;
            // Small local problem: the DDOT is allreduce-dominated, as in
            // the paper's timing breakdown.
            o.rows_per_rank = 8 * 8 * 8;
            o.spec.algo = d.algo;
            return apps::run_hpcg(cfg, o).ddot_s * 1e6;  // us
          });
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  store.print("Fig 11(a) — HPCG total DDOT time (us), 25 CG iterations, "
              "cluster A, 28 ppn",
              "job size");
  for (int nodes : node_counts) {
    const std::string row = std::to_string(nodes * 28) + " procs";
    const double host = store.at(row, "host-based");
    const double sock = store.at(row, "socket-leader");
    std::cout << "DDOT improvement at " << row << " (socket-leader): "
              << (1.0 - sock / host) * 100.0 << "%\n";
  }
  std::cout << "(paper: up to 35% at 56 procs, ~10% at 224; see "
               "EXPERIMENTS.md for the scaling-trend deviation)\n";
  return rc;
}
