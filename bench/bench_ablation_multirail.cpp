// Ablation: multi-HCA (multi-rail) nodes (paper §4.3's multi-HCA remark).
//
// With two rails, each socket injects through its own HCA. Expected shapes:
//  * flat reduce-scatter+allgather at full subscription is link-bound, so a
//    second rail cuts its large-message latency nearly in half;
//  * DPML-16 barely changes — the multi-leader design already removed the
//    NIC bottleneck (its large-message time is compute/copy dominated),
//    which is the paper's §4.1 point restated as an ablation;
//  * small messages are latency-bound and insensitive to rails everywhere.
#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

int main(int argc, char** argv) {
  using namespace dpml;
  static benchx::SeriesStore store;
  const int nodes = 16;
  const int ppn = 28;

  struct Series {
    const char* label;
    net::ClusterConfig cfg;
    const char* algo;
    int leaders;
  };
  const Series series[] = {
      {"flat-rsa 1 rail", net::cluster_b(), "rsa", 1},
      {"flat-rsa 2 rails", net::with_rails(net::cluster_b(), 2), "rsa", 1},
      {"dpml16 1 rail", net::cluster_b(), "dpml", 16},
      {"dpml16 2 rails", net::with_rails(net::cluster_b(), 2), "dpml", 16},
  };

  for (std::size_t bytes : benchx::paper_sizes()) {
    const std::string row = util::format_bytes(bytes);
    for (const Series& se : series) {
      coll::CollSpec spec;
      spec.algo = se.algo;
      spec.leaders = se.leaders;
      benchx::register_point(
          std::string("multirail/bytes:") + row + "/" + se.label, store, row,
          se.label, [=](core::PerfReport& perf) {
            return benchx::latency_us(se.cfg, nodes, ppn, bytes, spec, perf);
          });
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  store.print("Ablation — multi-rail nodes, latency (us), cluster B 16x28",
              "msg size");
  std::cout << "\n1M speedup from the second rail: flat-rsa "
            << store.at("1M", "flat-rsa 1 rail") /
                   store.at("1M", "flat-rsa 2 rails")
            << "x, dpml16 "
            << store.at("1M", "dpml16 1 rail") /
                   store.at("1M", "dpml16 2 rails")
            << "x (DPML already removed the NIC bottleneck)\n";
  return rc;
}
