// Figure 10: MPI_Allreduce latency at large scale — 10,240 processes on
// 160 KNL nodes of cluster D (64 ppn) — proposed DPML (tuned selection)
// vs the MVAPICH2-like and IntelMPI-like baselines.
//
// Expected shape (paper §6.4): the proposed design outperforms the
// MVAPICH2-like baseline by up to ~3x (207%) and the IntelMPI-like baseline
// by up to ~1.5x (48%), with the gap widest for medium/large messages.
// At this scale the per-size selection uses the calibrated dpml_auto table
// rather than a live tuning sweep (the paper likewise applied the
// configuration chosen in its earlier empirical evaluation).
#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

int main(int argc, char** argv) {
  using namespace dpml;
  const auto cfg = net::cluster_d();
  const int nodes = 160;
  const int ppn = 64;
  static benchx::SeriesStore store;

  struct Entry {
    const char* label;
    const char* algo;
  };
  const Entry entries[] = {
      {"proposed", "dpml-auto"},
      {"mvapich2", "mvapich2"},
      {"intelmpi", "intelmpi"},
  };

  for (std::size_t bytes : benchx::paper_sizes()) {
    for (const Entry& e : entries) {
      coll::CollSpec spec;
      spec.algo = e.algo;
      const std::string row = util::format_bytes(bytes);
      benchx::register_point(
          std::string("fig10/bytes:") + row + "/" + e.label, store, row,
          e.label, [=](core::PerfReport& perf) {
            return benchx::latency_us(cfg, nodes, ppn, bytes, spec, perf);
          });
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  store.print("Fig 10 — MPI_Allreduce latency (us), 10,240 procs "
              "(160 nodes x 64 ppn), cluster D",
              "msg size");
  double gain_mv = 0;
  double gain_im = 0;
  for (std::size_t bytes : benchx::paper_sizes()) {
    const std::string row = dpml::util::format_bytes(bytes);
    gain_mv = std::max(gain_mv,
                       store.at(row, "mvapich2") / store.at(row, "proposed"));
    gain_im = std::max(gain_im,
                       store.at(row, "intelmpi") / store.at(row, "proposed"));
  }
  std::cout << "\nmax speedup at 10,240 procs: " << gain_mv
            << "x vs mvapich2 (paper: ~3.07x), " << gain_im
            << "x vs intelmpi (paper: ~1.48x)\n";
  return rc;
}
