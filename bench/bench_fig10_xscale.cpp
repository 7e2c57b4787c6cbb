// Figure 10 extension: MPI_Allreduce latency far beyond the paper's
// testbeds — 1,024 to 262,144 nodes (one rank per node, 16 KB, the tuned
// dpml-auto stack) on the cluster B (Xeon + EDR IB) and cluster D
// (KNL + Omni-Path) node/NIC models, extrapolated with net::with_nodes.
//
// At these scales payload buffers alone would dwarf host memory, so the
// sweep runs metadata-only (docs/MODEL.md §10): messages carry no payload
// and the simulated latencies are bit-identical to a payload-mode run.
// --smoke keeps a tiny CI shape (64 and 512 nodes, 2 ppn).
//
// Flags beyond the common bench set (--smoke, --jobs N):
//   --perf-json FILE   write aggregate host-perf counters (events/sec,
//                      peak queue depth, peak RSS, elided payload bytes)
//                      as JSON — appended to BENCH_perf.json by CI
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

namespace {

using namespace dpml;

struct XscaleFlags {
  std::string perf_json;
};

XscaleFlags strip_xscale_flags(int& argc, char** argv) {
  XscaleFlags f;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--perf-json" && i + 1 < argc) {
      f.perf_json = argv[++i];
    } else if (a.rfind("--perf-json=", 0) == 0) {
      f.perf_json = a.substr(12);
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;
  return f;
}

// Per-point perf results, committed by slot index so the post-run aggregate
// is independent of executor scheduling.
std::vector<core::MeasurePerf> perf_slots;

}  // namespace

int main(int argc, char** argv) {
  const benchx::BenchFlags bf = benchx::strip_common_flags(argc, argv);
  const XscaleFlags xf = strip_xscale_flags(argc, argv);

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

  int slot = 0;
  for (const net::ClusterConfig& base : bases) {
    for (const int nodes : node_counts) {
      const net::ClusterConfig cfg = net::with_nodes(base, nodes);
      coll::CollSpec spec;
      spec.algo = "dpml-auto";
      const std::string row = std::to_string(nodes);
      const int my_slot = slot++;
      benchx::register_point(
          "fig10x/" + base.name + "/nodes:" + row, store, row, base.name,
          [=]() {
            const core::MeasureResult r = core::measure_collective(
                coll::CollKind::allreduce, cfg, nodes, ppn, bytes, spec, opt);
            benchx::note_measure_perf(r);
            perf_slots[static_cast<std::size_t>(my_slot)] = r.perf;
            return r.avg_us;
          });
    }
  }
  perf_slots.resize(static_cast<std::size_t>(slot));

  const int rc = benchx::run_benchmarks(argc, argv);
  store.print("Fig 10x — MPI_Allreduce 16 KB latency (us) vs node count, "
                  "ppn=" + std::to_string(ppn) + ", dpml-auto, metadata-only",
              "nodes");
  if (!xf.perf_json.empty()) {
    if (!benchx::write_perf_json(xf.perf_json, "bench_fig10_xscale",
                                 perf_slots, slot)) {
      std::cerr << "cannot write perf json " << xf.perf_json << "\n";
      return 1;
    }
    std::cout << "\nperf counters written to " << xf.perf_json << "\n";
  }
  return rc;
}
