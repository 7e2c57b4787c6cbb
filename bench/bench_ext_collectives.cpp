// Extension bench (paper §8 future work): applying the multi-leader /
// shared-memory treatment to other collectives. Compares the registered
// rooted-reduce and broadcast designs on cluster B at 16x28, with the
// candidate set coming straight from the collective registry (the same
// sweep the tuner uses).
//
// Expected shapes: binomial wins small messages; for large messages the
// bandwidth-optimal flat designs (rsa-gather / scatter-allgather) beat
// binomial, and the hierarchical designs beat flat at full subscription for
// the same NIC-pressure reason as allreduce; DPML-reduce adds the
// parallel-compute advantage on top.
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/tuner.hpp"
#include "net/cluster.hpp"

int main(int argc, char** argv) {
  using namespace dpml;
  const auto cfg = net::cluster_b();
  const int nodes = 16;
  const int ppn = 28;
  core::MeasureOptions opt;  // metadata-only
  opt.iterations = 1;
  opt.warmup = 1;
  static benchx::SeriesStore reduce_store;
  static benchx::SeriesStore bcast_store;

  struct Series {
    core::CollKind kind;
    const char* tag;
    benchx::SeriesStore* store;
  };
  const Series series[] = {
      {core::CollKind::reduce, "ext-reduce", &reduce_store},
      {core::CollKind::bcast, "ext-bcast", &bcast_store},
  };

  for (std::size_t bytes : benchx::paper_sizes()) {
    const std::string row = util::format_bytes(bytes);
    for (const Series& s : series) {
      for (const core::CollSpec& cand :
           core::registry_candidates(s.kind, ppn, cfg.has_sharp(), bytes)) {
        const std::string label = cand.label(s.kind);
        benchx::register_point(
            std::string(s.tag) + "/bytes:" + row + "/" + label, *s.store, row,
            label, [=](core::PerfReport& perf) {
              return benchx::measure_us(s.kind, cfg, nodes, ppn, bytes, cand,
                                        opt, perf);
            });
      }
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  reduce_store.print(
      "Extension — MPI_Reduce designs, latency (us), cluster B, 16x28",
      "msg size");
  bcast_store.print(
      "Extension — MPI_Bcast designs, latency (us), cluster B, 16x28",
      "msg size");
  return rc;
}
