// Trace replay example: evaluate the collective designs on a production-like
// operation mix (Rabenseifner's profiling motivation — most MPI time in
// many small allreduces with periodic large ones) instead of a synthetic
// size sweep.
//
//   $ ./replay_mix [cluster] [nodes] [ppn] [trace-file]
//
// Without a trace file, the built-in mix is used. Trace format: see
// src/apps/replay.hpp.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "apps/replay.hpp"
#include "net/cluster.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dpml;
  const std::string cluster = argc > 1 ? argv[1] : "B";
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 8;
  const int ppn = argc > 3 ? std::atoi(argv[3]) : 28;
  const auto cfg = net::cluster_by_name(cluster);

  std::vector<apps::TraceOp> trace;
  if (argc > 4) {
    std::ifstream is(argv[4]);
    if (!is) {
      std::cerr << "cannot open " << argv[4] << "\n";
      return 1;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    trace = apps::parse_trace(ss.str());
  } else {
    trace = apps::parse_trace(apps::example_trace());
  }

  std::cout << "Replaying " << trace.size() << " collective ops on cluster "
            << cfg.name << ", " << nodes << "x" << ppn << "\n\n";

  util::Table t({"MPI stack", "total", "in collectives", "collective %"});
  double base_comm = 0;
  for (const std::string algo : {"mvapich2", "intelmpi", "dpml-auto"}) {
    apps::ReplayOptions o;
    o.nodes = nodes;
    o.ppn = ppn;
    o.spec.algo = algo;
    const auto r = apps::replay_trace(cfg, trace, o);
    if (algo == "mvapich2") base_comm = r.comm_s;
    t.row()
        .cell(algo)
        .cell(util::format_seconds(r.total_s))
        .cell(util::format_seconds(r.comm_s))
        .cell(r.comm_s / r.total_s * 100.0, 1);
  }
  t.print(std::cout);
  std::cout << "\nCollective time saved by the proposed selection vs the\n"
               "MVAPICH2-like stack on this mix: "
            << (1.0 - [&] {
                 apps::ReplayOptions o;
                 o.nodes = nodes;
                 o.ppn = ppn;
                 o.spec.algo = "dpml-auto";
                 return apps::replay_trace(cfg, trace, o).comm_s;
               }() / base_comm) * 100.0
            << "%\n";
  return 0;
}
