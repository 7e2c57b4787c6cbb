// Heap allocations made while building a Machine: per-rank state (each
// rank's Matcher, its collective counters, the world communicator's index)
// must not allocate per rank; a collective's per-node slot allocates only
// what its design uses; and the checker's snapshots of an invocation reuse
// the storage of the one before. A binary of its own, because it replaces
// the global operator new to count calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "check/check.hpp"
#include "coll/registry.hpp"
#include "net/cluster.hpp"
#include "sharp/sharp.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/verify.hpp"

namespace {
std::uint64_t g_allocations = 0;  // the test runs on one thread
std::uint64_t g_allocated_bytes = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  ++g_allocations;
  g_allocated_bytes += n;
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dpml::simmpi {
namespace {

// Allocations made by building a metadata-only Machine of this shape.
std::uint64_t setup_allocations(const net::ClusterConfig& cfg, int nodes,
                                int ppn) {
  RunOptions opt;
  opt.with_data = false;
  const std::uint64_t before = g_allocations;
  auto m = std::make_unique<Machine>(cfg, nodes, ppn, opt);
  return g_allocations - before;
}

TEST(SetupAllocations, PerRankStateDoesNotAllocate) {
  const net::ClusterConfig b = net::cluster_b();
  (void)setup_allocations(b, 2, 2);  // one-time static set-up
  const std::uint64_t one = setup_allocations(b, 64, 1);
  const std::uint64_t full = setup_allocations(b, 64, 28);
  ASSERT_GE(full, one);
  const double per_rank =
      static_cast<double>(full - one) / static_cast<double>(64 * 27);
  // What is left per rank is the std::deque<Rank> blocks (a few ranks per
  // block); a per-rank queue, hash node or table would add one or more.
  EXPECT_LT(per_rank, 0.5) << one << " allocations at 64x1, " << full
                           << " at 64x28";
}

// Allocations per node and invocation of a metadata-only allreduce on a
// 4x28 machine of `cfg` (B unless named): the difference between runs of 6
// and 2 back-to-back invocations, so the Machine's set-up and the pools'
// first carving cancel out. A design that needs a SharpFabric gets one.
double allocations_per_invocation(coll::CollSpec spec,
                                  const net::ClusterConfig& cfg =
                                      net::cluster_b()) {
  const coll::CollDescriptor& d =
      coll::CollRegistry::instance().at(coll::CollKind::allreduce, spec.algo);
  const auto run = [&](int invocations) {
    RunOptions opt;
    opt.with_data = false;
    Machine m(cfg, 4, 28, opt);
    std::optional<sharp::SharpFabric> fabric;
    if (d.caps.needs_fabric) spec.fabric = &fabric.emplace(m);
    const std::uint64_t before = g_allocations;
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 1024;
      a.inplace = true;
      for (int i = 0; i < invocations; ++i) co_await d.make(a, spec);
    });
    return g_allocations - before;
  };
  return static_cast<double>(run(6) - run(2)) / (4.0 * 4.0);
}

TEST(SetupAllocations, CollectiveSlotAllocatesOnlyWhatItsDesignUses) {
  coll::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 16;
  // One hash node and one vector each of windows, latches and flags,
  // however many leaders share the slot.
  EXPECT_LE(allocations_per_invocation(spec), 4.0);
}

TEST(SetupAllocations, SharpLeadersDoNotRebuildTheirGroup) {
  // The socket leaders' member list is built once per machine, as the node
  // leaders' is: 8.5 allocations per node and invocation on A 4x28
  // (sharp-node-leader makes 6.5). One list per socket leader and
  // invocation would make it 10.5.
  coll::CollSpec spec;
  spec.algo = "sharp-socket-leader";
  EXPECT_LT(allocations_per_invocation(spec, net::cluster_a()), 9.0);
}

// Two identical checked alltoall invocations on 4 parties with 64 KiB
// buffers, driven straight through a Checker: the first snapshots into new
// storage, the second into the first's, so it allocates no snapshot
// storage (alltoall's reference folds nothing, so the reference allocates
// nothing either).
TEST(CheckerSnapshots, SecondIdenticalInvocationAllocatesNoSnapshotStorage) {
  constexpr int kParties = 4;
  constexpr std::size_t kCount = 4096;  // f32 per block
  constexpr std::size_t kBlock = kCount * sizeof(float);
  constexpr std::size_t kBuffer = kParties * kBlock;
  std::vector<std::vector<std::byte>> in(kParties);
  std::vector<std::vector<std::byte>> out(kParties,
                                          std::vector<std::byte>(kBuffer));
  for (int r = 0; r < kParties; ++r) {
    in[static_cast<std::size_t>(r)] = make_operand(
        Dtype::f32, kParties * kCount, r, ReduceOp::sum);
  }
  for (std::size_t r = 0; r < kParties; ++r) {
    for (std::size_t b = 0; b < kParties; ++b) {
      std::memcpy(out[r].data() + b * kBlock, in[b].data() + r * kBlock,
                  kBlock);
    }
  }
  check::Checker ck(check::CheckLevel::strict, /*with_data=*/true, kParties);
  struct Counts {
    std::uint64_t bytes = 0;
    std::uint64_t allocations = 0;
  };
  const auto invocation = [&] {
    const std::uint64_t bytes = g_allocated_bytes;
    const std::uint64_t allocations = g_allocations;
    std::uint64_t token[kParties];
    for (int r = 0; r < kParties; ++r) {
      token[r] = ck.begin_collective(
          coll::CollKind::alltoall, r, 1, "pairwise", kParties, r, 0, kCount,
          Dtype::f32, ReduceOp::sum, in[static_cast<std::size_t>(r)]);
    }
    for (int r = 0; r < kParties; ++r) {
      ck.end_collective(r, token[r], out[static_cast<std::size_t>(r)]);
    }
    return Counts{g_allocated_bytes - bytes, g_allocations - allocations};
  };
  const Counts first = invocation();
  const Counts second = invocation();
  EXPECT_EQ(ck.stats().snapshot_bytes, 2u * 2 * kParties * kBuffer);
  EXPECT_EQ(ck.stats().invocations, 2u);
  EXPECT_GE(first.bytes, 2u * kParties * kBuffer);
  // What is left is the invocation's bookkeeping (its record and label),
  // well under one buffer.
  EXPECT_LT(second.bytes, kBlock) << second.allocations << " allocations";
  ck.finalize(false, "", 0, 0);
}

TEST(SetupAllocations, CountsThisBinarysAllocations) {
  // The counter sees allocations: a Machine's set-up is never free.
  EXPECT_GT(setup_allocations(net::test_cluster(2), 1, 1), 0u);
}

}  // namespace
}  // namespace dpml::simmpi
