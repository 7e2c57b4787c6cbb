// Auto-tuning example: reproduce the paper's §6.4 methodology — sweep DPML
// configurations per message size on a chosen platform and print the best
// configuration table (the kind of table an MPI library would ship as its
// tuned defaults for that system).
//
//   $ ./autotune [cluster] [nodes] [ppn]
//   $ ./autotune C 16 28
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/tuner.hpp"
#include "net/cluster.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dpml;

  const std::string cluster = argc > 1 ? argv[1] : "C";
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 16;
  const int ppn = argc > 3 ? std::atoi(argv[3]) : 28;
  const net::ClusterConfig cfg = net::cluster_by_name(cluster);

  std::cout << "Tuning MPI_Allreduce for cluster " << cfg.name << ", " << nodes
            << " nodes x " << ppn << " ppn"
            << (cfg.has_sharp() ? " (SHArP available)" : "") << "\n";

  util::Table table({"msg size", "best config", "latency (us)",
                     "runner-up", "runner-up (us)"});
  for (std::size_t bytes :
       {4ul, 64ul, 1024ul, 8192ul, 65536ul, 262144ul, 1048576ul}) {
    core::MeasureOptions opt;
    opt.iterations = 3;
    opt.warmup = 1;
    const auto allreduce = core::CollKind::allreduce;
    const auto r =
        core::tune_collective(allreduce, cfg, nodes, ppn, bytes, opt);
    table.row()
        .cell(util::format_bytes(bytes))
        .cell(r.best.spec.label(allreduce))
        .cell(r.best.avg_us, 2)
        .cell(r.all.size() > 1 ? r.all[1].spec.label(allreduce) : "-")
        .cell(r.all.size() > 1 ? r.all[1].avg_us : 0.0, 2);
  }
  table.print(std::cout);

  std::cout << "\nSmall messages favour one leader (or SHArP offload on\n"
            << "SHArP-capable fabrics); large messages favour many leaders —\n"
            << "the per-size selection the paper's hybrid scheme applies.\n";
  return 0;
}
