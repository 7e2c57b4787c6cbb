// Shared driver for Figures 4-7: MPI_Allreduce latency with different
// numbers of DPML leaders, against the MVAPICH2-like default.
//
// Expected shape (paper §6.2): below ~1KB extra leaders do not help (and can
// hurt slightly); for medium and large messages more leaders win, with
// ~4-5x at 512KB for 16 leaders vs 1.
//
// Flags: --smoke shrinks the shape and size sweep for CI; --jobs N fans the
// fully independent points across host threads (tables stay byte-identical).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

namespace dpml::benchx {

inline int run_leader_sweep(const std::string& figure,
                            const net::ClusterConfig& cfg, int nodes, int ppn,
                            int argc, char** argv) {
  const BenchFlags flags = strip_common_flags(argc, argv);
  const int use_nodes = flags.smoke ? std::min(nodes, 4) : nodes;
  const int use_ppn = flags.smoke ? std::min(ppn, 8) : ppn;
  std::vector<std::size_t> sizes = paper_sizes();
  if (flags.smoke) sizes = {4, 1024, 65536, 524288};

  static SeriesStore store;
  const int leader_counts[] = {1, 2, 4, 8, 16};

  for (std::size_t bytes : sizes) {
    for (int l : leader_counts) {
      coll::CollSpec spec;
      spec.algo = "dpml";
      spec.leaders = l;
      const std::string name = figure + "/bytes:" + util::format_bytes(bytes) +
                               "/leaders:" + std::to_string(l);
      register_point(name, store, util::format_bytes(bytes),
                     "l=" + std::to_string(l), [=](core::PerfReport& perf) {
                       return latency_us(cfg, use_nodes, use_ppn, bytes, spec,
                                         perf);
                     });
    }
    coll::CollSpec mv;
    mv.algo = "mvapich2";
    register_point(figure + "/bytes:" + util::format_bytes(bytes) + "/mvapich2",
                   store, util::format_bytes(bytes), "mvapich2",
                   [=](core::PerfReport& perf) {
                     return latency_us(cfg, use_nodes, use_ppn, bytes, mv,
                                       perf);
                   });
  }

  const int rc = run_benchmarks(argc, argv);
  store.print(figure + " — MPI_Allreduce latency (us), " +
                  std::to_string(use_nodes) + " nodes x " +
                  std::to_string(use_ppn) + " ppn, cluster " + cfg.name,
              "msg size");
  const double l1 = store.at("512K", "l=1");
  const double l16 = store.at("512K", "l=16");
  std::cout << "\n512KB speedup, 16 leaders vs 1: " << l1 / l16
            << "x (paper: ~4.9x on B, ~4.3x on C)\n";
  return rc;
}

}  // namespace dpml::benchx
