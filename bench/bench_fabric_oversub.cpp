// Core-oversubscription study under the flow-level fabric (src/fabric).
//
// The LogGP transport treats the switched core as contention-free wire;
// --fabric replaces it with explicit node/leaf/core links shared max-min
// fairly, so a thinner core (oversubscription > 1) genuinely slows the
// cross-leaf rounds of the leader allreduce. This bench sweeps the
// oversubscription factor of one cluster shape (everything else fixed) over
// the DPML leader counts and reports, per message size:
//   1. absolute latency per (oversubscription, leaders), with the classic
//      LogGP transport as the reference row, and
//   2. the contention penalty T_os / T_1:1 per leader count.
//
// Expected shape: at 1:1 the flow fabric tracks LogGP within a few percent
// (same serialization, same latencies — the flows just never contend); as
// the core thins the large-message latencies grow monotonically, and the
// penalty grows with the leader count, since l concurrent leader flows per
// node are exactly the demand an oversubscribed core cannot carry. This is
// the quantitative version of the paper's §6.1 caveat that its clusters'
// fat trees are not non-blocking.
//
// The swept shape uses EDR-like nodes with proc_bw raised to the link rate
// (a single leader can saturate its edge link, as on DMA-capable fat NICs):
// with the stock 2.5 GB/s injection pipe the endpoints, not the core, are
// the bottleneck and every oversubscription row would read the same.
//
// --smoke: tiny shape (4 nodes, 2 leaves) for CI.
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

namespace {

using namespace dpml;

struct Config {
  net::ClusterConfig base;            // oversubscription patched per row
  int nodes = 8;
  int ppn = 8;
  std::vector<std::size_t> sizes;
  std::vector<double> oversubs;       // 1.0 first: the non-blocking baseline
  std::vector<int> leaders;
  int iterations = 3;
};

Config make_config(bool smoke) {
  Config c;
  c.base = net::cluster_b();
  c.base.name = "B-oversub";
  c.base.nodes_per_leaf = 4;          // several leaves at bench-able scale
  c.base.nic.proc_bw = c.base.nic.link_bw;  // edge-saturating leaders
  if (smoke) {
    c.base.nodes_per_leaf = 2;        // 4 nodes must still span two leaves
    c.nodes = 4;
    c.ppn = 2;
    c.sizes = {65536};
    c.oversubs = {1.0, 2.0};
    c.leaders = {1, 2};
    c.iterations = 2;
    return c;
  }
  c.nodes = 8;
  c.ppn = 8;
  c.sizes = {65536, 262144, 1048576};
  c.oversubs = {1.0, 4.0 / 3.0, 2.0, 4.0};
  c.leaders = {1, 2, 4, 8};
  return c;
}

double fabric_latency(const Config& c, std::size_t bytes, int leaders,
                      double oversub, bool fabric_on,
                      core::PerfReport& perf) {
  net::ClusterConfig cfg = c.base;
  cfg.oversubscription = oversub;
  coll::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = leaders;
  core::MeasureOptions opt;
  opt.iterations = c.iterations;
  opt.warmup = 1;
  opt.fabric =
      fabric_on ? fabric::FabricLevel::links : fabric::FabricLevel::none;
  return benchx::measure_us(coll::CollKind::allreduce, cfg, c.nodes, c.ppn,
                            bytes, spec, opt, perf);
}

std::string os_row(double oversub) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "os=%.2f", oversub);
  return buf;
}

std::string leader_col(int l) { return "l=" + std::to_string(l); }

}  // namespace

int main(int argc, char** argv) {
  const Config c = make_config(benchx::strip_common_flags(argc, argv).smoke);
  // One latency store per message size: rows = fabric config, cols = leaders.
  std::vector<benchx::SeriesStore> stores(c.sizes.size());
  const std::string loggp = "loggp";

  for (std::size_t si = 0; si < c.sizes.size(); ++si) {
    const std::size_t bytes = c.sizes[si];
    for (int l : c.leaders) {
      // Reference: the classic transport on the non-blocking build.
      const std::string ref_name = "oversub/bytes:" +
                                   util::format_bytes(bytes) + "/loggp/" +
                                   leader_col(l);
      benchx::register_point(
          ref_name, stores[si], loggp, leader_col(l),
          [&c, bytes, l](core::PerfReport& perf) {
            return fabric_latency(c, bytes, l, 1.0, false, perf);
          });
      for (double os : c.oversubs) {
        const std::string name = "oversub/bytes:" + util::format_bytes(bytes) +
                                 "/" + os_row(os) + "/" + leader_col(l);
        benchx::register_point(
            name, stores[si], os_row(os), leader_col(l),
            [&c, bytes, l, os](core::PerfReport& perf) {
              return fabric_latency(c, bytes, l, os, true, perf);
            });
      }
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);

  std::cout << "\nCore-oversubscription study on cluster " << c.base.name
            << ", " << c.nodes << "x" << c.ppn << " (nodes_per_leaf "
            << c.base.nodes_per_leaf << ", --fabric flow model)\n";
  for (std::size_t si = 0; si < c.sizes.size(); ++si) {
    const std::string size = util::format_bytes(c.sizes[si]);
    stores[si].print("oversub " + size + " — allreduce latency (us) vs core "
                     "oversubscription", "fabric");

    // Contention penalty: each oversubscription row against the 1:1 fabric.
    benchx::SeriesStore ratio;
    for (double os : c.oversubs) {
      if (os == c.oversubs.front()) continue;
      for (int l : c.leaders) {
        ratio.put(os_row(os), leader_col(l),
                  stores[si].at(os_row(os), leader_col(l)) /
                      stores[si].at(os_row(1.0), leader_col(l)));
      }
    }
    ratio.print("oversub " + size + " — contention penalty T_os / T_1:1",
                "fabric");

    const double parity = stores[si].at(os_row(1.0), leader_col(c.leaders.front())) /
                          stores[si].at(loggp, leader_col(c.leaders.front()));
    const double worst = stores[si].at(os_row(c.oversubs.back()),
                                       leader_col(c.leaders.back())) /
                         stores[si].at(os_row(1.0),
                                       leader_col(c.leaders.back()));
    std::cout << "\n" << size << ": 1:1 fabric / LogGP = " << parity
              << " (parity check), " << os_row(c.oversubs.back())
              << " penalty at " << leader_col(c.leaders.back()) << " = "
              << worst << "x\n";
  }
  return rc;
}
