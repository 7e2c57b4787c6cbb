// Tracing example: run one DPML allreduce with execution tracing enabled
// and dump a Chrome-trace JSON (open in chrome://tracing or Perfetto) that
// shows the four DPML phases — per-rank partition copies, the parallel
// leader reductions, the concurrent inter-node exchanges, and the final
// broadcast copies.
//
//   $ ./trace_dpml [nodes] [ppn] [bytes] [out.json]
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "core/api.hpp"
#include "net/cluster.hpp"
#include "simmpi/machine.hpp"
#include "util/table.hpp"

using namespace dpml;

namespace {

// One rank's part: a single in-place allreduce of `count` floats.
sim::CoTask<void> rank_main(simmpi::Rank& r, std::size_t count,
                            coll::CollSpec spec) {
  coll::CollArgs a;
  a.rank = &r;
  a.comm = &r.machine().world();
  a.count = count;
  a.inplace = true;
  co_await core::run_collective(core::CollKind::allreduce, a, spec);
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 4;
  const int ppn = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::size_t bytes = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                     : 256 * 1024;
  const std::string out = argc > 4 ? argv[4] : "dpml_trace.json";

  simmpi::RunOptions opt;
  opt.with_data = false;
  simmpi::Machine m(net::cluster_b(), nodes, ppn, opt);
  m.enable_trace();

  coll::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 4;
  m.run([&](simmpi::Rank& r) { return rank_main(r, bytes / 4, spec); });

  std::ofstream os(out);
  m.tracer().write_chrome_json(os);
  std::cout << "DPML allreduce of " << util::format_bytes(bytes) << "B on "
            << nodes << "x" << ppn << " finished in "
            << util::format_seconds(sim::to_seconds(m.now())) << "\n"
            << m.tracer().size() << " spans written to " << out << "\n"
            << "stats: " << m.comm_stats().net_messages
            << " fabric messages, " << m.comm_stats().net_bytes
            << " fabric bytes, " << m.comm_stats().window_copies
            << " window copies, " << m.comm_stats().reduce_bytes
            << " reduced bytes\n";
  return 0;
}
