// Calibration lock: exact simulated latencies for a matrix of
// (cluster, shape, design, size) configurations.
//
// The simulator is bitwise deterministic, so these values are stable across
// runs and machines. Their purpose is to catch *accidental* model drift —
// any change to the transport charging rules, the hardware constants, or an
// algorithm's communication structure shows up here immediately. When a
// change is intentional (recalibration, algorithm improvement), regenerate
// the table and update EXPERIMENTS.md in the same commit.
#include <gtest/gtest.h>

#include "core/measure.hpp"
#include "net/cluster.hpp"

namespace dpml::core {
namespace {

struct Golden {
  const char* cluster;
  int nodes;
  int ppn;
  const char* algo;  // registered allreduce name
  int leaders;
  std::size_t bytes;
  double expect_us;
};

TEST(Golden, SimulatedLatenciesAreLockedIn) {
  const Golden table[] = {
      {"B", 8, 28, "dpml", 1, 65536ul, 496.212496},
      {"B", 8, 28, "dpml", 16, 65536ul, 102.101742},
      {"B", 8, 28, "dpml", 16, 524288ul, 784.875451},
      {"B", 8, 28, "mvapich2", 1, 524288ul, 2480.560736},
      {"B", 8, 28, "intelmpi", 1, 524288ul, 950.637556},
      {"B", 8, 28, "rd", 1, 4096ul, 39.544354},
      {"B", 8, 28, "rsa", 1, 262144ul, 1235.251043},
      {"C", 8, 28, "dpml", 16, 524288ul, 792.003536},
      {"C", 8, 28, "mvapich2", 1, 16384ul, 120.529706},
      {"A", 16, 28, "sharp-node-leader", 1, 16ul, 5.672266},
      {"A", 16, 28, "sharp-socket-leader", 1, 256ul, 4.296266},
      {"A", 16, 28, "mvapich2", 1, 16ul, 8.233066},
      {"D", 16, 64, "dpml", 16, 262144ul, 1804.907185},
      {"D", 16, 64, "intelmpi", 1, 262144ul, 2444.634583},
      {"D", 16, 64, "dpml-auto", 1, 1024ul, 62.726365},
      {"test", 4, 4, "dpml", 2, 8192ul, 14.922930},
      {"test", 4, 4, "ring", 1, 8192ul, 24.524656},
      {"test", 4, 4, "binomial", 1, 1024ul, 8.687598},
      {"test", 4, 4, "gather-bcast", 1, 1024ul, 9.957329},
      {"test", 4, 4, "single-leader", 1, 4096ul, 12.813864},
  };
  for (const Golden& g : table) {
    CollSpec spec;
    spec.algo = g.algo;
    spec.leaders = g.leaders;
    MeasureOptions opt;
    opt.iterations = 3;
    opt.warmup = 1;
    const auto r =
        measure_collective(CollKind::allreduce, net::cluster_by_name(g.cluster),
                           g.nodes, g.ppn, g.bytes, spec, opt);
    // Sub-nanosecond tolerance: the value must be *identical* up to the
    // microsecond formatting used to record it.
    EXPECT_NEAR(r.avg_us, g.expect_us, 1e-4)
        << g.cluster << " " << g.nodes << "x" << g.ppn << " "
        << g.algo << " l=" << g.leaders << " " << g.bytes << "B";
  }
}

}  // namespace
}  // namespace dpml::core
