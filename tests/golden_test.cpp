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

#include <cstdio>
#include <string>

#include "coll/alltoall.hpp"
#include "coll/bcast.hpp"
#include "coll/group_coll.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "sharp/sharp.hpp"

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

// A value as the tables below record it: enough digits to round-trip.
std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The hierarchical designs of every kind, on shapes where the node phase is
// irregular: ppn 7 on dual-socket A against 4 leaders (ragged leader
// spacing and partitions, a short second socket), a root that leads no
// group (world rank 11 is local rank 4 of node 1), pipelined rows and ppn 1.
struct KindGolden {
  const char* cluster;
  int nodes;
  int ppn;
  CollKind kind;
  const char* algo;
  int leaders;
  int pipeline_k;
  std::size_t bytes;
  int root;
  double expect_us;
};

TEST(GoldenKinds, HierarchicalDesignLatenciesAreLockedIn) {
  const KindGolden table[] = {
      {"A", 4, 7, CollKind::reduce, "dpml", 4, 1, 4100ul, 11, 10.637862},
      {"A", 4, 7, CollKind::reduce, "dpml", 4, 1, 262148ul, 11,
       311.14826099999999},
      {"A", 4, 7, CollKind::reduce_scatter, "dpml", 4, 1, 1028ul, 0,
       29.43101866666667},
      {"A", 4, 7, CollKind::reduce_scatter, "dpml", 4, 4, 1028ul, 0,
       28.128792000000001},
      {"A", 4, 7, CollKind::allgather, "dpml", 4, 1, 1028ul, 0,
       22.273199000000002},
      {"A", 4, 7, CollKind::reduce, "single-leader", 1, 1, 4100ul, 11,
       13.816664000000001},
      {"A", 4, 7, CollKind::bcast, "single-leader", 1, 1, 4100ul, 11,
       8.7833319999999997},
      {"A", 4, 7, CollKind::barrier, "single-leader", 1, 1, 0ul, 0,
       2.3599999999999999},
      {"A", 4, 7, CollKind::allreduce, "dpml", 4, 4, 262148ul, 0,
       286.77809999999999},
      {"B", 4, 28, CollKind::allreduce, "dpml", 16, 4, 1048576ul, 0,
       1544.3512680000001},
      {"A", 4, 7, CollKind::allreduce, "single-leader", 1, 1, 4100ul, 0,
       15.532663999999999},
      {"A", 4, 7, CollKind::allreduce, "sharp-node-leader", 1, 1, 64ul, 0,
       3.6658659999999998},
      {"A", 4, 7, CollKind::allreduce, "sharp-socket-leader", 1, 1, 64ul, 0,
       2.5703999999999998},
      {"A", 4, 7, CollKind::allreduce, "sharp-socket-leader", 1, 1,
       2097152ul, 0, 5915.8281319999996},
      {"A", 4, 1, CollKind::reduce, "dpml", 4, 1, 4100ul, 3,
       5.3333319999999995},
      {"A", 4, 1, CollKind::allreduce, "sharp-socket-leader", 1, 1, 64ul, 0,
       1.8464},
  };
  for (const KindGolden& g : table) {
    CollSpec spec;
    spec.algo = g.algo;
    spec.leaders = g.leaders;
    spec.pipeline_k = g.pipeline_k;
    MeasureOptions opt;
    opt.iterations = 3;
    opt.warmup = 1;
    opt.root = g.root;
    const auto r = measure_collective(g.kind, net::cluster_by_name(g.cluster),
                                      g.nodes, g.ppn, g.bytes, spec, opt);
    EXPECT_EQ(r.avg_us, g.expect_us)
        << g.cluster << " " << g.nodes << "x" << g.ppn << " "
        << coll_kind_name(g.kind) << "/" << g.algo << " l=" << g.leaders
        << " k=" << g.pipeline_k << " " << g.bytes << "B root " << g.root
        << ": measured " << g17(r.avg_us);
  }
}

// The flat designs that run on the ring passes and the local copy, on
// non-power-of-two p with ragged blocks: C 5x3 (p = 15) and D 7x4 (p = 28),
// root 11 (neither 0 nor p-1), 1x1 machines (reduce_scatter is then one
// local copy) and the linear gather and scatter at p = 4.
TEST(GoldenKinds, FlatDesignLatenciesAreLockedIn) {
  const KindGolden table[] = {
      {"C", 5, 3, CollKind::allreduce, "ring", 1, 1, 4100ul, 0,
       21.418499999999998},
      {"C", 5, 3, CollKind::allreduce, "ring", 1, 1, 262148ul, 0,
       277.42865599999999},
      {"C", 5, 3, CollKind::allreduce, "cring", 1, 1, 262148ul, 0,
       277.42865599999999},
      {"C", 5, 3, CollKind::allreduce, "cring", 3, 1, 262148ul, 0,
       168.79514900000001},
      {"C", 5, 3, CollKind::allreduce, "binomial", 1, 1, 4100ul, 0, 14.63424},
      {"D", 7, 4, CollKind::allreduce, "ring", 1, 1, 65540ul, 0, 184.106033},
      {"D", 7, 4, CollKind::allreduce, "cring", 1, 1, 65540ul, 0, 184.106033},
      {"D", 7, 4, CollKind::allreduce, "cring", 3, 1, 65540ul, 0,
       152.75617800000001},
      {"D", 7, 4, CollKind::allreduce, "binomial", 1, 1, 65540ul, 0,
       473.22954099999998},
      {"C", 5, 3, CollKind::reduce, "rsa-gather", 1, 1, 262148ul, 11,
       205.769372},
      {"D", 7, 4, CollKind::reduce, "rsa-gather", 1, 1, 65540ul, 11,
       134.16889799999998},
      {"C", 5, 3, CollKind::reduce, "binomial", 1, 1, 4100ul, 11,
       9.0821199999999997},
      {"C", 5, 3, CollKind::reduce_scatter, "ring", 1, 1, 1028ul, 0,
       19.108066000000001},
      {"D", 7, 4, CollKind::reduce_scatter, "ring", 1, 1, 1028ul, 0,
       75.243757000000002},
      {"C", 1, 1, CollKind::reduce_scatter, "ring", 1, 1, 4100ul, 0,
       0.97000000000000008},
      {"C", 1, 1, CollKind::reduce_scatter, "reduce-then-scatter", 1, 1,
       4100ul, 0, 0.97000000000000008},
      {"C", 5, 3, CollKind::allgather, "ring", 1, 1, 1028ul, 0, 12.5586},
      {"C", 5, 3, CollKind::allgather, "rd", 1, 1, 1028ul, 0, 12.5586},
      {"C", 5, 3, CollKind::bcast, "scatter-allgather", 1, 1, 65540ul, 11,
       37.138277000000002},
      {"test", 2, 2, CollKind::gather, "linear", 1, 1, 4100ul, 3,
       3.3999999999999999},
      {"test", 2, 2, CollKind::scatter, "linear", 1, 1, 4100ul, 3,
       3.3999999999999999},
      {"C", 5, 3, CollKind::alltoall, "pairwise", 1, 1, 1028ul, 0,
       14.475833999999999},
      {"C", 5, 3, CollKind::alltoall, "bruck", 1, 1, 64ul, 0,
       5.0930410000000004},
  };
  for (const KindGolden& g : table) {
    CollSpec spec;
    spec.algo = g.algo;
    spec.leaders = g.leaders;
    spec.pipeline_k = g.pipeline_k;
    MeasureOptions opt;
    opt.iterations = 3;
    opt.warmup = 1;
    opt.root = g.root;
    const auto r = measure_collective(g.kind, net::cluster_by_name(g.cluster),
                                      g.nodes, g.ppn, g.bytes, spec, opt);
    EXPECT_EQ(r.avg_us, g.expect_us)
        << g.cluster << " " << g.nodes << "x" << g.ppn << " "
        << coll_kind_name(g.kind) << "/" << g.algo << " l=" << g.leaders
        << " " << g.bytes << "B root " << g.root << ": measured "
        << g17(r.avg_us);
  }

  // allgatherv_ring has no registry entry: one call with the Vcoll tests'
  // irregular block sizes on a metadata-only 3x2 test machine.
  simmpi::Machine m(net::test_cluster(3), 3, 2,
                    simmpi::RunOptions{.with_data = false, .seed = 1});
  m.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
    coll::AllgathervArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.block_bytes = {1, 9, 0, 13, 5, 2};
    co_await coll::allgatherv_ring(a);
  });
  EXPECT_EQ(sim::to_us(m.now()), 4.551266)
      << "allgatherv_ring: measured " << g17(sim::to_us(m.now()));
}

// The SHArP barrier and bcast are not registered: three back-to-back calls
// on a metadata-only A machine, the total simulated time.
double sharp_node_phase_us(CollKind kind, int nodes, int ppn,
                           std::size_t bytes, int root) {
  simmpi::Machine m(net::cluster_a(), nodes, ppn,
                    simmpi::RunOptions{.with_data = false, .seed = 1});
  sharp::SharpFabric f(m);
  m.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = bytes;
    a.dt = simmpi::Dtype::u8;
    a.root = root;
    for (int i = 0; i < 3; ++i) {
      if (kind == CollKind::barrier) {
        co_await coll::barrier_single_leader(a, &f);
      } else {
        co_await coll::bcast_single_leader(a, &f);
      }
    }
  });
  return sim::to_us(m.now());
}

TEST(GoldenKinds, SharpBarrierAndBcastAreLockedIn) {
  struct Row {
    CollKind kind;
    int nodes;
    int ppn;
    std::size_t bytes;
    int root;
    double expect_us;
  };
  const Row table[] = {
      {CollKind::barrier, 4, 7, 0ul, 0, 5.5199999999999996},
      {CollKind::barrier, 4, 1, 0ul, 0, 4.6200000000000001},
      {CollKind::bcast, 4, 7, 256ul, 12, 7.0761310000000002},
      {CollKind::bcast, 4, 7, 256ul, 0, 4.8701319999999999},
      {CollKind::bcast, 4, 7, 65536ul, 12, 227.94013100000001},
      {CollKind::bcast, 4, 7, 2097152ul, 12, 9101.3086640000001},
      {CollKind::bcast, 4, 1, 256ul, 2, 3.4311989999999999},
  };
  for (const Row& g : table) {
    const double us =
        sharp_node_phase_us(g.kind, g.nodes, g.ppn, g.bytes, g.root);
    EXPECT_EQ(us, g.expect_us)
        << coll_kind_name(g.kind) << " A " << g.nodes << "x" << g.ppn << " "
        << g.bytes << "B root " << g.root << ": measured " << g17(us);
  }
}

}  // namespace
}  // namespace dpml::core
