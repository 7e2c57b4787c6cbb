// Figure 10 extension: MPI_Allreduce latency far beyond the paper's
// testbeds — 1,024 to 262,144 nodes (one rank per node, 16 KB, the tuned
// dpml-auto stack) on the cluster B (Xeon + EDR IB) and cluster D
// (KNL + Omni-Path) node/NIC models, extrapolated with net::with_nodes.
//
// At these scales payload buffers alone would dwarf host memory, so the
// sweep runs metadata-only (docs/MODEL.md §10): messages carry no payload
// and the simulated latencies are bit-identical to a payload-mode run.
// --smoke keeps a tiny CI shape (64 and 512 nodes, 2 ppn).
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

int main(int argc, char** argv) {
  using namespace dpml;
  const benchx::BenchFlags bf = benchx::strip_common_flags(argc, argv);

  core::MeasureOptions opt;  // metadata-only (with_data = false)
  opt.iterations = 1;
  opt.warmup = 0;

  const std::vector<int> node_counts =
      bf.smoke ? std::vector<int>{64, 512}
               : std::vector<int>{1024, 4096, 16384, 65536, 262144};
  const int ppn = bf.smoke ? 2 : 1;
  const std::size_t bytes = 16384;

  const std::vector<net::ClusterConfig> bases = {net::cluster_b(),
                                                 net::cluster_d()};
  static benchx::SeriesStore store;

  for (const net::ClusterConfig& base : bases) {
    for (const int nodes : node_counts) {
      const net::ClusterConfig cfg = net::with_nodes(base, nodes);
      coll::CollSpec spec;
      spec.algo = "dpml-auto";
      const std::string row = std::to_string(nodes);
      benchx::register_point(
          "fig10x/" + base.name + "/nodes:" + row, store, row, base.name,
          [=](core::PerfReport& perf) {
            return benchx::measure_us(coll::CollKind::allreduce, cfg, nodes,
                                      ppn, bytes, spec, opt, perf);
          });
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  store.print("Fig 10x — MPI_Allreduce 16 KB latency (us) vs node count, "
                  "ppn=" + std::to_string(ppn) + ", dpml-auto, metadata-only",
              "nodes");
  return rc;
}
