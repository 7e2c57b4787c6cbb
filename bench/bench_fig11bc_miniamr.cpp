// Figure 11(b,c): miniAMR overall mesh-refinement time with the proposed
// design vs the library baselines, on cluster C (Xeon + Omni-Path) and
// cluster D (KNL + Omni-Path).
//
// Expected shape (paper §6.6): the refinement phase is dominated by
// medium/large allreduces, so the proposed design wins — up to ~40% over
// MVAPICH2-like and ~20% over IntelMPI-like on C; up to ~60% and ~20%
// respectively on D.
#include "apps/miniamr.hpp"
#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

namespace {

using namespace dpml;

struct Panel {
  const char* name;
  net::ClusterConfig cfg;
  int nodes;
  int ppn;
  benchx::SeriesStore store;
};

}  // namespace

int main(int argc, char** argv) {
  Panel panels[] = {
      {"Fig 11(b) cluster C (Xeon+Omni-Path)", net::cluster_c(), 16, 28, {}},
      {"Fig 11(c) cluster D (KNL+Omni-Path)", net::cluster_d(), 16, 64, {}},
  };
  struct Entry {
    const char* label;
    const char* algo;
  };
  const Entry entries[] = {
      {"proposed", "dpml-auto"},
      {"mvapich2", "mvapich2"},
      {"intelmpi", "intelmpi"},
  };
  const int block_counts[] = {8, 32, 64};  // refinement vector sizes

  for (Panel& p : panels) {
    for (int blocks : block_counts) {
      for (const Entry& e : entries) {
        const std::string row = std::to_string(blocks) + " blocks/rank";
        benchx::register_point(
            std::string("fig11bc/") + p.cfg.name + "/blocks:" +
                std::to_string(blocks) + "/" + e.label,
            p.store, row, e.label,
            [&p, blocks, e](core::PerfReport& perf) {
              apps::MiniAmrOptions o;
              o.nodes = p.nodes;
              o.ppn = p.ppn;
              o.refine_steps = 10;
              o.blocks_per_rank = blocks;
              o.spec.algo = e.algo;
              const apps::MiniAmrResult r = apps::run_miniamr(p.cfg, o);
              perf.add(r.engine_perf, r.elided_bytes);
              return r.refine_s * 1e6;  // us
            });
      }
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  for (Panel& p : panels) {
    p.store.print(std::string(p.name) +
                      " — miniAMR mesh refinement time (us), 10 steps, " +
                      std::to_string(p.nodes) + " nodes x " +
                      std::to_string(p.ppn) + " ppn",
                  "mesh size");
    const double base = p.store.at("64 blocks/rank", "mvapich2");
    const double ours = p.store.at("64 blocks/rank", "proposed");
    std::cout << "\nrefinement improvement vs mvapich2 (64 blocks/rank): "
              << (1.0 - ours / base) * 100.0 << "%\n";
  }
  return rc;
}
