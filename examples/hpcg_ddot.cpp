// HPCG DDOT example (the paper's §6.5 application study): run the CG
// kernel's dot-product phase under weak scaling on the SHArP-capable
// cluster A and compare reduction designs.
//
//   $ ./hpcg_ddot [nodes] [ppn] [iterations]
//   $ ./hpcg_ddot 8 28 25
#include <cstdlib>
#include <iostream>

#include "apps/hpcg.hpp"
#include "net/cluster.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dpml;

  const int nodes = argc > 1 ? std::atoi(argv[1]) : 8;
  const int ppn = argc > 2 ? std::atoi(argv[2]) : 28;
  const int iterations = argc > 3 ? std::atoi(argv[3]) : 25;
  const auto cfg = net::cluster_a();

  std::cout << "HPCG-like CG kernel on cluster A: " << nodes << " nodes x "
            << ppn << " ppn = " << nodes * ppn << " ranks, " << iterations
            << " CG iterations (3 DDOTs each)\n\n";

  util::Table table({"reduction design", "DDOT total", "per-DDOT (us)",
                     "CG loop total"});
  double host_ddot = 0;
  for (const std::string algo :
       {"mvapich2", "sharp-node-leader", "sharp-socket-leader"}) {
    apps::HpcgOptions o;
    o.nodes = nodes;
    o.ppn = ppn;
    o.iterations = iterations;
    o.spec.algo = algo;
    const auto r = apps::run_hpcg(cfg, o);
    if (algo == "mvapich2") host_ddot = r.ddot_s;
    table.row()
        .cell(algo)
        .cell(util::format_seconds(r.ddot_s))
        .cell(r.ddot_avg_us, 2)
        .cell(util::format_seconds(r.total_s));
  }
  table.print(std::cout);

  apps::HpcgOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  o.iterations = iterations;
  o.spec.algo = "sharp-socket-leader";
  const auto best = apps::run_hpcg(cfg, o);
  std::cout << "\nDDOT improvement with SHArP socket-leader: "
            << (1.0 - best.ddot_s / host_ddot) * 100.0
            << "% (paper Figure 11(a): up to 35%)\n";
  return 0;
}
