// miniAMR example (the paper's §6.6 application study): adaptive mesh
// refinement whose refinement phase is dominated by medium/large
// allreduces — the workload where DPML shines.
//
//   $ ./miniamr_refine [cluster] [nodes] [ppn] [steps]
//   $ ./miniamr_refine D 16 64 10
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/miniamr.hpp"
#include "net/cluster.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dpml;

  const std::string cluster = argc > 1 ? argv[1] : "C";
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 16;
  const int ppn = argc > 3 ? std::atoi(argv[3]) : 28;
  const int steps = argc > 4 ? std::atoi(argv[4]) : 10;
  const auto cfg = net::cluster_by_name(cluster);

  std::cout << "miniAMR-like refinement on cluster " << cfg.name << ": "
            << nodes << " nodes x " << ppn << " ppn, " << steps
            << " refinement steps\n\n";

  util::Table table({"MPI stack", "refine total", "per-step (us)",
                     "final blocks"});
  double base = 0;
  double ours = 0;
  for (const std::string algo : {"mvapich2", "intelmpi", "dpml-auto"}) {
    apps::MiniAmrOptions o;
    o.nodes = nodes;
    o.ppn = ppn;
    o.refine_steps = steps;
    o.blocks_per_rank = 32;
    o.spec.algo = algo;
    const auto r = apps::run_miniamr(cfg, o);
    if (algo == "mvapich2") base = r.refine_s;
    if (algo == "dpml-auto") ours = r.refine_s;
    table.row()
        .cell(algo)
        .cell(util::format_seconds(r.refine_s))
        .cell(r.per_step_us, 1)
        .cell(r.final_blocks);
  }
  table.print(std::cout);

  std::cout << "\nRefinement-time improvement of the proposed design vs the\n"
            << "MVAPICH2-like baseline: " << (1.0 - ours / base) * 100.0
            << "% (paper Figure 11(b,c): up to 40-60%)\n";
  return 0;
}
