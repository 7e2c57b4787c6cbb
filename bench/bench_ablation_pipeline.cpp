// Ablation: DPML-Pipelined sub-partition depth k (paper §4.2).
//
// On an Omni-Path-like fabric, very large per-leader partitions sit in Zone
// C where extra concurrency does not add bandwidth; pipelining the
// inter-node phase into k non-blocking sub-allreduces overlaps per-chunk
// latency and compute across recursive-doubling steps. Expected shape:
// k>1 helps once the per-leader partition is large (multi-MB inputs), and
// is neutral-to-harmful for small partitions (extra startup, Eq. 5).
#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

int main(int argc, char** argv) {
  using namespace dpml;
  const auto cfg = net::cluster_c();
  const int nodes = 16;
  const int ppn = 28;
  static benchx::SeriesStore store;

  for (std::size_t bytes : {262144ul, 1048576ul, 4194304ul, 16777216ul}) {
    for (int l : {4, 16}) {
      for (int k : {1, 2, 4, 8, 16}) {
        coll::CollSpec spec;
        spec.algo = "dpml";
        spec.leaders = l;
        spec.pipeline_k = k;
        const std::string row =
            util::format_bytes(bytes) + " l=" + std::to_string(l);
        benchx::register_point(
            std::string("ablation/bytes:") + util::format_bytes(bytes) +
                "/l:" + std::to_string(l) + "/k:" + std::to_string(k),
            store, row, "k=" + std::to_string(k), [=](core::PerfReport& perf) {
              return benchx::latency_us(cfg, nodes, ppn, bytes, spec, perf);
            });
      }
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  store.print("Ablation — DPML-Pipelined depth k, latency (us), cluster C, "
              "16x28",
              "config");
  return rc;
}
