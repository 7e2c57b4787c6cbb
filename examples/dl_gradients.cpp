// Deep-learning gradient synchronization (the paper's intro motivation for
// medium/large-message allreduce): synchronous data-parallel SGD with
// bucketed gradient allreduce, overlapped with backprop.
//
//   $ ./dl_gradients [cluster] [nodes] [ppn]
//   $ ./dl_gradients D 16 64
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/dl.hpp"
#include "net/cluster.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dpml;
  const std::string cluster = argc > 1 ? argv[1] : "B";
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 8;
  const int ppn = argc > 3 ? std::atoi(argv[3]) : 28;
  const auto cfg = net::cluster_by_name(cluster);

  std::cout << "Synchronous SGD on cluster " << cfg.name << ", " << nodes
            << "x" << ppn << " = " << nodes * ppn
            << " workers; 16 gradient buckets x 4MB\n\n";

  util::Table t({"MPI stack", "overlap", "step time", "exposed comm"});
  for (const char* algo : {"mvapich2", "intelmpi", "dpml-auto"}) {
    for (bool overlap : {false, true}) {
      apps::DlOptions o;
      o.nodes = nodes;
      o.ppn = ppn;
      o.spec.algo = algo;
      o.overlap = overlap;
      const auto r = apps::run_dl_training(cfg, o);
      t.row()
          .cell(std::string(algo))
          .cell(std::string(overlap ? "yes" : "no"))
          .cell(util::format_seconds(r.step_s))
          .cell(util::format_seconds(r.exposed_comm_s));
    }
  }
  t.print(std::cout);
  std::cout << "\nDPML cuts the exposed (non-hidden) communication per step;\n"
            << "non-blocking bucket allreduce hides most of the rest behind\n"
            << "backprop compute.\n";
  return 0;
}
