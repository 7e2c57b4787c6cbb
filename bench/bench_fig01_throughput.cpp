// Figure 1: relative throughput with different numbers of communicating
// pairs, over (a) shared memory, (b) EDR InfiniBand, (c) Omni-Path on Xeon,
// (d) Omni-Path on KNL. Values are aggregate throughput relative to one
// pair (osu_mbw_mr style).
//
// Expected shapes (paper §3): (a) and (b) scale close to the pair count at
// all message sizes; (c)/(d) scale for small messages (Zone A) but flatten
// to ~1 for large messages (Zone C).
#include "apps/osu.hpp"
#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

namespace {

using namespace dpml;
using benchx::SeriesStore;

struct Panel {
  const char* name;
  net::ClusterConfig cfg;
  bool intra_node;
  SeriesStore store;
};

}  // namespace

int main(int argc, char** argv) {
  Panel panels[] = {
      {"Fig 1(a) intra-node (cluster B node)", net::cluster_b(), true, {}},
      {"Fig 1(b) inter-node Xeon+IB (cluster B)", net::cluster_b(), false, {}},
      {"Fig 1(c) inter-node Xeon+Omni-Path (cluster C)", net::cluster_c(),
       false, {}},
      {"Fig 1(d) inter-node KNL+Omni-Path (cluster D)", net::cluster_d(),
       false, {}},
  };
  const int pair_counts[] = {2, 4, 8};

  for (Panel& p : panels) {
    for (std::size_t bytes : benchx::paper_sizes()) {
      for (int pairs : pair_counts) {
        const std::string name = std::string("fig01/") + p.name + "/bytes:" +
                                 util::format_bytes(bytes) +
                                 "/pairs:" + std::to_string(pairs);
        benchx::register_point(
            name, p.store, util::format_bytes(bytes),
            "pairs=" + std::to_string(pairs),
            [&p, pairs, bytes](core::PerfReport&) {
              return apps::relative_throughput(p.cfg, pairs, bytes,
                                               p.intra_node);
            });
      }
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  for (const Panel& p : panels) {
    p.store.print(std::string(p.name) + " — relative throughput vs 1 pair",
                  "msg size");
  }
  return rc;
}
