// Section 5 model validation: analytical DPML cost (Eq. 7) against the
// simulator, per leader count and message size, on cluster B.
//
// Expected shape: model and simulation agree closely where contention is
// light (small leader counts); the simulator reads higher as leader counts
// grow because the model ignores NIC/memory-pipe sharing (§5.3 discusses
// only the uncontended costs). Both predict the same optimal-leader trend.
#include "bench/bench_common.hpp"
#include "model/model.hpp"
#include "net/cluster.hpp"

int main(int argc, char** argv) {
  using namespace dpml;
  const auto cfg = net::cluster_b();
  const int nodes = 16;
  const int ppn = 28;
  static benchx::SeriesStore store;

  for (std::size_t bytes : {4096ul, 65536ul, 524288ul, 1048576ul}) {
    for (int l : {1, 2, 4, 8, 16}) {
      const std::string row =
          util::format_bytes(bytes) + " l=" + std::to_string(l);
      benchx::register_point(
          std::string("model/bytes:") + util::format_bytes(bytes) +
              "/l:" + std::to_string(l) + "/analytical",
          store, row, "model Eq.7 (us)", [=](core::PerfReport&) {
            return model::t_dpml(
                       model::from_cluster(cfg, nodes, ppn, l, bytes)) *
                   1e6;
          });
      coll::CollSpec spec;
      spec.algo = "dpml";
      spec.leaders = l;
      spec.inter = coll::InterAlgo::recursive_doubling;  // Eq (4) assumes rd
      benchx::register_point(
          std::string("model/bytes:") + util::format_bytes(bytes) +
              "/l:" + std::to_string(l) + "/simulated",
          store, row, "simulated (us)", [=](core::PerfReport& perf) {
            return benchx::latency_us(cfg, nodes, ppn, bytes, spec, perf);
          });
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  store.print("Model validation — Eq. (7) vs simulator, cluster B, 16x28",
              "config");
  return rc;
}
