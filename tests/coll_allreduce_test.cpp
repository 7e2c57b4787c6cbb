// Correctness of every allreduce design: parameterized sweeps verified
// bit-for-bit against the serial reference reduction (verify.hpp generates
// operands whose reductions are exact in any combination order).
#include <gtest/gtest.h>

#include <iterator>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core/measure.hpp"
#include "net/cluster.hpp"

namespace dpml::core {
namespace {

using simmpi::Dtype;
using simmpi::ReduceOp;

constexpr CollKind kAllreduce = CollKind::allreduce;

// Registered allreduce names: the flat baselines, the hierarchical designs,
// the SHArP designs, the library-like stacks and the tuned DPML selection.
const std::string kAllAlgos[] = {
    "rd",
    "rsa",
    "ring",
    "binomial",
    "gather-bcast",
    "single-leader",
    "dpml",
    "sharp-node-leader",
    "sharp-socket-leader",
    "mvapich2",
    "intelmpi",
    "dpml-auto",
};

// A design by its position in kAllAlgos. It has no operator<<, so gtest
// prints the parameter as its raw bytes and the ctest names of the sweeps
// below stay those of the earlier enum-typed parameter.
struct Algo {
  int index;
  const std::string& name() const { return kAllAlgos[index]; }
};

std::vector<Algo> all_algos() {
  std::vector<Algo> out;
  for (int i = 0; i < static_cast<int>(std::size(kAllAlgos)); ++i) {
    out.push_back(Algo{i});
  }
  return out;
}

struct Shape {
  int nodes;
  int ppn;
};

std::ostream& operator<<(std::ostream& os, const Shape& s) {
  return os << s.nodes << "x" << s.ppn;
}

MeasureResult run_case(const std::string& algo, Shape shape, std::size_t count,
                       Dtype dt = Dtype::f32, ReduceOp op = ReduceOp::sum,
                       int leaders = 2, int pipeline_k = 1) {
  auto cfg = net::test_cluster(shape.nodes);
  CollSpec spec;
  spec.algo = algo;
  spec.leaders = leaders;
  spec.pipeline_k = pipeline_k;
  MeasureOptions opt;
  opt.with_data = true;
  opt.iterations = 2;
  opt.warmup = 1;
  opt.dt = dt;
  opt.op = op;
  return measure_collective(kAllreduce, cfg, shape.nodes, shape.ppn,
                            count * simmpi::dtype_size(dt), spec, opt);
}

// ---------------------------------------------------------------------------
// Sweep 1: every algorithm on every shape (fixed medium message).

class AlgoShape
    : public ::testing::TestWithParam<std::tuple<Algo, Shape>> {};

TEST_P(AlgoShape, ProducesExactResult) {
  const auto [algo, shape] = GetParam();
  // Odd count: ragged partitions.
  const auto res = run_case(algo.name(), shape, 257);
  EXPECT_TRUE(res.verified) << algo.name() << " on " << shape.nodes << "x"
                            << shape.ppn;
  EXPECT_GT(res.avg_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgoShape,
    ::testing::Combine(::testing::ValuesIn(all_algos()),
                       ::testing::Values(Shape{1, 4}, Shape{2, 1}, Shape{2, 4},
                                         Shape{3, 4}, Shape{5, 3},
                                         Shape{8, 2}, Shape{7, 1})),
    [](const ::testing::TestParamInfo<std::tuple<Algo, Shape>>& info) {
      std::string name = std::get<0>(info.param).name();
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      const Shape shape = std::get<1>(info.param);
      return name + "_" + std::to_string(shape.nodes) + "x" +
             std::to_string(shape.ppn);
    });

// ---------------------------------------------------------------------------
// Sweep 2: message sizes from empty to multi-chunk on a fixed shape.

class AlgoCount
    : public ::testing::TestWithParam<std::tuple<Algo, std::size_t>> {};

TEST_P(AlgoCount, ProducesExactResult) {
  const auto [algo, count] = GetParam();
  const auto res = run_case(algo.name(), Shape{4, 4}, count);
  EXPECT_TRUE(res.verified) << algo.name() << " count=" << count;
}

INSTANTIATE_TEST_SUITE_P(
    MessageSizes, AlgoCount,
    ::testing::Combine(::testing::ValuesIn(all_algos()),
                       ::testing::Values<std::size_t>(0, 1, 2, 7, 16, 63, 256,
                                                      1000, 4096)),
    [](const ::testing::TestParamInfo<std::tuple<Algo, std::size_t>>& info) {
      std::string name = std::get<0>(info.param).name();
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_n" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Sweep 3: datatypes and operators (reduction arithmetic paths).

class DtypeOp
    : public ::testing::TestWithParam<std::tuple<Dtype, ReduceOp>> {};

TEST_P(DtypeOp, AllDesignsAgree) {
  const auto [dt, op] = GetParam();
  for (const char* algo :
       {"rd", "rsa", "ring", "dpml", "sharp-socket-leader"}) {
    const auto res = run_case(algo, Shape{4, 4}, 129, dt, op);
    EXPECT_TRUE(res.verified)
        << algo << " " << simmpi::dtype_name(dt) << " "
        << simmpi::op_name(op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, DtypeOp,
    ::testing::Values(
        std::make_tuple(Dtype::f32, ReduceOp::sum),
        std::make_tuple(Dtype::f64, ReduceOp::sum),
        std::make_tuple(Dtype::i32, ReduceOp::sum),
        std::make_tuple(Dtype::i64, ReduceOp::sum),
        std::make_tuple(Dtype::u8, ReduceOp::sum),
        std::make_tuple(Dtype::f32, ReduceOp::max),
        std::make_tuple(Dtype::f64, ReduceOp::min),
        std::make_tuple(Dtype::i32, ReduceOp::min),
        std::make_tuple(Dtype::f32, ReduceOp::prod),
        std::make_tuple(Dtype::i64, ReduceOp::band),
        std::make_tuple(Dtype::i32, ReduceOp::bor)),
    [](const ::testing::TestParamInfo<std::tuple<Dtype, ReduceOp>>& info) {
      return std::string(simmpi::dtype_name(std::get<0>(info.param))) + "_" +
             simmpi::op_name(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Sweep 4: DPML leader counts and pipeline depths.

class DpmlConfig
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DpmlConfig, ProducesExactResult) {
  const auto [leaders, k] = GetParam();
  const auto res = run_case("dpml", Shape{4, 4}, 1023, Dtype::f32,
                            ReduceOp::sum, leaders, k);
  EXPECT_TRUE(res.verified) << "l=" << leaders << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    LeadersByPipeline, DpmlConfig,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 16),
                       ::testing::Values(1, 2, 3, 5, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "l" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Determinism and timing sanity.

TEST(Measure, DeterministicAcrossRepeats) {
  const auto a = run_case("dpml", Shape{4, 4}, 500);
  const auto b = run_case("dpml", Shape{4, 4}, 500);
  EXPECT_EQ(a.avg_us, b.avg_us);
  EXPECT_EQ(a.events, b.events);
}

TEST(Measure, MetadataAndDataModesAgreeOnTime) {
  CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 2;
  auto cfg = net::test_cluster(4);
  MeasureOptions with;
  with.with_data = true;
  MeasureOptions without;
  without.with_data = false;
  const auto a = measure_collective(kAllreduce, cfg, 4, 4, 4096, spec, with);
  const auto b =
      measure_collective(kAllreduce, cfg, 4, 4, 4096, spec, without);
  EXPECT_EQ(a.avg_us, b.avg_us);
}

TEST(Measure, LatencyMonotoneInMessageSize) {
  auto cfg = net::test_cluster(4);
  for (const char* algo : {"rd", "dpml", "mvapich2"}) {
    CollSpec spec;
    spec.algo = algo;
    double prev = 0.0;
    for (std::size_t bytes : {64u, 1024u, 16384u, 262144u}) {
      const auto r = measure_collective(kAllreduce, cfg, 4, 4, bytes, spec);
      EXPECT_GE(r.avg_us, prev) << algo << " at " << bytes;
      prev = r.avg_us;
    }
  }
}

TEST(Measure, WarmupIterationsExcluded) {
  auto cfg = net::test_cluster(2);
  CollSpec spec;
  spec.algo = "rd";
  MeasureOptions o1;
  o1.iterations = 3;
  o1.warmup = 0;
  MeasureOptions o2;
  o2.iterations = 3;
  o2.warmup = 4;
  const auto a = measure_collective(kAllreduce, cfg, 2, 2, 1024, spec, o1);
  const auto b = measure_collective(kAllreduce, cfg, 2, 2, 1024, spec, o2);
  // Steady-state average should be stable regardless of warmup count.
  EXPECT_NEAR(a.avg_us, b.avg_us, a.avg_us * 0.25);
}

TEST(Measure, RejectsMisalignedSize) {
  auto cfg = net::test_cluster(2);
  CollSpec spec;
  spec.algo = "rd";
  MeasureOptions opt;
  opt.dt = simmpi::Dtype::f64;
  EXPECT_THROW(measure_collective(kAllreduce, cfg, 2, 2, 12, spec, opt),
               util::InvariantError);
}

TEST(Measure, SharpOnFabriclessClusterThrows) {
  auto cfg = net::cluster_b();  // no SHArP
  CollSpec spec;
  spec.algo = "sharp-node-leader";
  EXPECT_THROW(measure_collective(kAllreduce, cfg, 2, 2, 64, spec),
               util::InvariantError);
}

TEST(Measure, SharpOnFabriclessClusterNamesDesignAndCluster) {
  // One line naming the design and the cluster, not a source location.
  CollSpec spec;
  spec.algo = "sharp-node-leader";
  try {
    (void)measure_collective(kAllreduce, net::cluster_c(), 5, 3, 64, spec);
    ADD_FAILURE() << "a SHArP design ran on cluster C";
  } catch (const util::InvariantError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg, "allreduce/sharp-node-leader needs a SHArP fabric; "
                   "cluster C has none");
    EXPECT_EQ(msg.find(".cpp"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace dpml::core
