// simcheck matrix: every registered algorithm of every collective kind runs
// under check_level=strict with real data, across multiple datatypes and
// message sizes spanning the rendezvous threshold — plus a non-commutative
// user-op sweep (fold order must be ascending comm-rank) and an MPI_IN_PLACE
// aliasing sweep. Any semantics violation surfaces as a CheckError; any
// wrong result fails both the checker and the reference comparison.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "coll/registry.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "sharp/sharp.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/verify.hpp"
#include "test_ops.hpp"

namespace dpml {
namespace {

using coll::CollKind;
using coll::CollRegistry;
using coll::CollSpec;
using simmpi::Dtype;
using simmpi::Machine;
using simmpi::Rank;

constexpr int kNodes = 3;
constexpr int kPpn = 4;
constexpr int kWorld = kNodes * kPpn;

// ---------------------------------------------------------------------------
// Builtin-op matrix through the measurement harness (which already verifies
// every rank's buffer against the serial reference) with strict checking on.

TEST(CheckMatrix, EveryAlgorithmEveryKindStrictWithData) {
  const net::ClusterConfig cfg = net::cluster_by_name("test");
  // 64 B stays eager; 8 KiB crosses the 4 KiB rendezvous threshold.
  const std::size_t sizes[] = {64, 8192};
  const Dtype dtypes[] = {Dtype::f32, Dtype::i64};
  for (CollKind kind : coll::kAllCollKinds) {
    for (const coll::CollDescriptor* d : CollRegistry::instance().list(kind)) {
      if (kWorld < d->caps.min_comm_size) continue;
      for (Dtype dt : dtypes) {
        for (std::size_t bytes : sizes) {
          core::MeasureOptions opt;
          opt.iterations = 2;  // second iteration re-enters the same slots
          opt.warmup = 0;
          opt.with_data = true;
          opt.dt = dt;
          opt.root = 1;  // rooted kinds: exercise a non-zero root
          opt.check = check::CheckLevel::strict;
          CollSpec spec;
          spec.algo = d->name;
          spec.leaders = 2;
          const std::string what = std::string(coll::coll_kind_name(kind)) +
                                   "/" + d->name + " dt=" +
                                   simmpi::dtype_name(dt) + " bytes=" +
                                   std::to_string(bytes);
          core::MeasureResult res;
          ASSERT_NO_THROW(res = core::measure_collective(kind, cfg, kNodes,
                                                         kPpn, bytes, spec,
                                                         opt))
              << what;
          EXPECT_TRUE(res.verified) << what;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Non-commutative user op: affine-map composition (see test_ops.hpp). The
// checker's serial reference folds in ascending comm-rank order, so any
// algorithm that reorders operands throws CheckError here; the test also
// compares every output against its own fold.

void run_affine(CollKind kind, const std::string& algo, Dtype dt,
                std::size_t count, int root) {
  const net::ClusterConfig cfg = net::cluster_by_name("test");
  simmpi::RunOptions ropt;
  ropt.with_data = true;
  ropt.check_level = check::CheckLevel::strict;
  Machine m(cfg, kNodes, kPpn, ropt);

  CollSpec spec;
  spec.algo = algo;
  spec.leaders = 2;
  std::optional<sharp::SharpFabric> fabric;
  core::attach_fabric(m, kind, spec, fabric);

  // reduce_scatter takes the per-block count; each rank contributes the
  // full count*world vector and keeps its own comm-rank-ordered block.
  const bool scatters = kind == CollKind::reduce_scatter;
  const std::size_t total = scatters ? count * kWorld : count;
  const std::size_t esize = simmpi::dtype_size(dt);
  std::vector<std::vector<std::byte>> sendb(kWorld), recvb(kWorld);
  for (int w = 0; w < kWorld; ++w) {
    sendb[static_cast<std::size_t>(w)] = testing::affine_operand(dt, total, w);
    recvb[static_cast<std::size_t>(w)].resize(count * esize);
  }

  m.run([&](Rank& r) -> sim::CoTask<void> {
    const auto w = static_cast<std::size_t>(r.world_rank());
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = count;
    a.dt = dt;
    a.op = testing::affine_op();
    a.root = root;
    a.send = sendb[w];
    a.recv = recvb[w];
    co_await core::run_collective(kind, a, spec);
  });

  const std::vector<std::byte> ref = testing::affine_reference(dt, total,
                                                               kWorld);
  const std::string what = std::string(coll::coll_kind_name(kind)) + "/" +
                           algo + " dt=" + simmpi::dtype_name(dt) +
                           " count=" + std::to_string(count);
  if (kind == CollKind::allreduce) {
    for (int w = 0; w < kWorld; ++w) {
      EXPECT_EQ(recvb[static_cast<std::size_t>(w)], ref)
          << what << " rank " << w;
    }
  } else if (scatters) {
    for (int w = 0; w < kWorld; ++w) {
      const auto i = static_cast<std::size_t>(w);
      const std::vector<std::byte> block(
          ref.begin() + static_cast<std::ptrdiff_t>(i * count * esize),
          ref.begin() + static_cast<std::ptrdiff_t>((i + 1) * count * esize));
      EXPECT_EQ(recvb[i], block) << what << " rank " << w;
    }
  } else {
    EXPECT_EQ(recvb[static_cast<std::size_t>(root)], ref) << what;
  }
}

TEST(CheckMatrix, NonCommutativeOpFoldsInRankOrderEverywhere) {
  for (CollKind kind : {CollKind::allreduce, CollKind::reduce,
                        CollKind::reduce_scatter}) {
    const int root = kind == CollKind::reduce ? 2 : 0;
    for (const coll::CollDescriptor* d : CollRegistry::instance().list(kind)) {
      if (kWorld < d->caps.min_comm_size) continue;
      // Small/eager i32 and a >rendezvous i64 payload (1024 * 8 B = 8 KiB;
      // for reduce_scatter the per-block counts keep the same footprints).
      run_affine(kind, d->name, Dtype::i32, 16, root);
      run_affine(kind, d->name, Dtype::i64, 1024, root);
    }
  }
}

// The op really is non-commutative (the sweep above would be vacuous
// otherwise) and its fold matches Op::apply's left-accumulator convention.
TEST(CheckMatrix, AffineOpIsNonCommutativeAndAssociative) {
  const std::uint32_t a = testing::affine_pack<std::uint32_t>(3, 5);
  const std::uint32_t b = testing::affine_pack<std::uint32_t>(7, 11);
  const std::uint32_t c = testing::affine_pack<std::uint32_t>(9, 2);
  EXPECT_NE(testing::affine_combine(a, b), testing::affine_combine(b, a));
  EXPECT_EQ(
      testing::affine_combine(testing::affine_combine(a, b), c),
      testing::affine_combine(a, testing::affine_combine(b, c)));
  EXPECT_FALSE(testing::affine_op().commutative());
}

// ---------------------------------------------------------------------------
// MPI_IN_PLACE aliasing: recv holds the input on every rank (the repo-wide
// convention; see coll.hpp). Every allreduce and reduce algorithm must
// produce the reference result from aliased buffers, under strict checking.
// Allgather's in-place form stages each rank's contribution in its own
// comm-rank-ordered block of recv, matching MPI_IN_PLACE MPI_Allgather.

void run_inplace(CollKind kind, const std::string& algo, int root) {
  const net::ClusterConfig cfg = net::cluster_by_name("test");
  simmpi::RunOptions ropt;
  ropt.with_data = true;
  ropt.check_level = check::CheckLevel::strict;
  Machine m(cfg, kNodes, kPpn, ropt);

  CollSpec spec;
  spec.algo = algo;
  spec.leaders = 2;
  std::optional<sharp::SharpFabric> fabric;
  core::attach_fabric(m, kind, spec, fabric);

  const Dtype dt = Dtype::f32;
  const std::size_t count = 512;  // 2 KiB
  const std::size_t esize = simmpi::dtype_size(dt);
  const bool gathers = kind == CollKind::allgather;
  std::vector<std::vector<std::byte>> recvb(kWorld);
  for (int w = 0; w < kWorld; ++w) {
    const auto i = static_cast<std::size_t>(w);
    const auto operand =
        simmpi::make_operand(dt, count, w, simmpi::ReduceOp::sum, /*seed=*/1);
    if (gathers) {
      recvb[i].resize(count * esize * kWorld);
      std::memcpy(recvb[i].data() + i * count * esize, operand.data(),
                  operand.size());
    } else {
      recvb[i] = operand;
    }
  }

  m.run([&](Rank& r) -> sim::CoTask<void> {
    const auto w = static_cast<std::size_t>(r.world_rank());
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = count;
    a.dt = dt;
    a.op = simmpi::ReduceOp::sum;
    a.root = root;
    a.inplace = true;
    a.recv = recvb[w];
    co_await core::run_collective(kind, a, spec);
  });

  const std::string what =
      std::string(coll::coll_kind_name(kind)) + "/" + algo + " in-place";
  if (gathers) {
    std::vector<std::byte> concat;
    for (int w = 0; w < kWorld; ++w) {
      const auto piece =
          simmpi::make_operand(dt, count, w, simmpi::ReduceOp::sum, 1);
      concat.insert(concat.end(), piece.begin(), piece.end());
    }
    for (int w = 0; w < kWorld; ++w) {
      EXPECT_EQ(recvb[static_cast<std::size_t>(w)], concat)
          << what << " rank " << w;
    }
    return;
  }
  const auto ref = simmpi::reference_allreduce(dt, count, kWorld,
                                               simmpi::ReduceOp::sum, 1);
  if (kind == CollKind::allreduce) {
    for (int w = 0; w < kWorld; ++w) {
      EXPECT_EQ(recvb[static_cast<std::size_t>(w)], ref)
          << what << " rank " << w;
    }
  } else {
    EXPECT_EQ(recvb[static_cast<std::size_t>(root)], ref) << what;
  }
}

TEST(CheckMatrix, InPlaceAliasingAcrossEveryReductionAlgorithm) {
  for (CollKind kind : {CollKind::allreduce, CollKind::reduce}) {
    const int root = kind == CollKind::reduce ? 1 : 0;
    for (const coll::CollDescriptor* d : CollRegistry::instance().list(kind)) {
      if (kWorld < d->caps.min_comm_size) continue;
      run_inplace(kind, d->name, root);
    }
  }
}

TEST(CheckMatrix, InPlaceAllgatherAcrossEveryAlgorithm) {
  for (const coll::CollDescriptor* d :
       CollRegistry::instance().list(CollKind::allgather)) {
    if (kWorld < d->caps.min_comm_size) continue;
    run_inplace(CollKind::allgather, d->name, /*root=*/0);
  }
}

}  // namespace
}  // namespace dpml
