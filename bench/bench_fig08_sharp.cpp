// Figure 8: SHArP-based designs vs the host-based default on cluster A with
// 16 nodes, at (a) 1, (b) 4, and (c) 28 processes per node, for the small
// message range where in-network aggregation applies.
//
// Expected shapes (paper §6.3): SHArP ~2.5x faster at ppn=1 for tiny
// messages; the advantage shrinks with size, and the host-based design wins
// by 4KB. With multiple processes per node the socket-leader design beats
// the node-leader design (no cross-socket gather/broadcast).
#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

namespace {

using namespace dpml;

struct Panel {
  const char* name;
  int ppn;
  benchx::SeriesStore store;
};

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = net::cluster_a();
  const int nodes = 16;
  Panel panels[] = {
      {"Fig 8(a) ppn=1", 1, {}},
      {"Fig 8(b) ppn=4", 4, {}},
      {"Fig 8(c) ppn=28 (full subscription)", 28, {}},
  };
  const std::size_t sizes[] = {4, 16, 64, 256, 1024, 2048, 4096};

  struct Design {
    const char* label;
    const char* algo;
  };
  const Design designs[] = {
      {"host-based", "mvapich2"},
      {"node-leader", "sharp-node-leader"},
      {"socket-leader", "sharp-socket-leader"},
  };

  for (Panel& p : panels) {
    for (std::size_t bytes : sizes) {
      for (const Design& d : designs) {
        coll::CollSpec spec;
        spec.algo = d.algo;
        const std::string name = std::string("fig08/ppn:") +
                                 std::to_string(p.ppn) + "/bytes:" +
                                 util::format_bytes(bytes) + "/" + d.label;
        benchx::register_point(
            name, p.store, util::format_bytes(bytes), d.label,
            [&cfg, &p, bytes, spec](core::PerfReport& perf) {
              return benchx::latency_us(cfg, 16, p.ppn, bytes, spec, perf);
            });
      }
    }
  }
  (void)nodes;

  const int rc = benchx::run_benchmarks(argc, argv);
  for (const Panel& p : panels) {
    p.store.print(std::string(p.name) +
                      " — MPI_Allreduce latency (us), 16 nodes, cluster A",
                  "msg size");
  }
  const double host4 = panels[0].store.at("4", "host-based");
  const double sharp4 = panels[0].store.at("4", "node-leader");
  std::cout << "\n4B speedup at ppn=1 (SHArP vs host): " << host4 / sharp4
            << "x (paper: up to 2.5x)\n";
  return rc;
}
