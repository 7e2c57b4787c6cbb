// simcheck unit and integration tests: each checker rule is driven to fire
// (and to stay quiet on conforming behaviour), both against the Checker
// class directly and end-to-end through a checked Machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "coll/registry.hpp"
#include "core/api.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/trace.hpp"
#include "simmpi/verify.hpp"

namespace dpml {
namespace {

using check::Checker;
using check::CheckError;
using check::CheckLevel;
using coll::CollKind;
using simmpi::Dtype;
using simmpi::Machine;
using simmpi::Rank;

bool has_rule(const CheckError& e, const std::string& rule) {
  for (const check::Violation& v : e.violations()) {
    if (v.rule == rule) return true;
  }
  return false;
}

// Expect `fn` to throw a CheckError whose violation list contains `rule`.
template <typename Fn>
void expect_violation(const std::string& rule, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected CheckError with rule " << rule;
  } catch (const CheckError& e) {
    EXPECT_TRUE(has_rule(e, rule))
        << "expected rule " << rule << " in report:\n"
        << e.what();
    EXPECT_NE(std::string(e.what()).find(rule), std::string::npos)
        << "report should name the rule: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// Levels

TEST(CheckLevels, NamesRoundTrip) {
  EXPECT_EQ(check::check_level_by_name("off"), CheckLevel::off);
  EXPECT_EQ(check::check_level_by_name("basic"), CheckLevel::basic);
  EXPECT_EQ(check::check_level_by_name("strict"), CheckLevel::strict);
  EXPECT_STREQ(check::check_level_name(CheckLevel::strict), "strict");
  EXPECT_THROW(check::check_level_by_name("paranoid"), util::InvariantError);
}

// ---------------------------------------------------------------------------
// Buffer overlap (fail fast)

TEST(CheckBuffers, OverlappingLiveWriteFailsFast) {
  Checker ck(CheckLevel::basic, /*with_data=*/true, /*world_size=*/2);
  std::vector<std::byte> buf(64);
  auto lease = ck.acquire_write(
      0, simmpi::MutBytes{buf.data(), 32}, "recv", /*ctx=*/0, /*tag=*/1);
  // A second writer over the same bytes is the MPI buffer-reuse error.
  expect_violation("buffer-overlap", [&] {
    (void)ck.acquire_write(0, simmpi::MutBytes{buf.data() + 16, 32}, "recv", 0,
                           2);
  });
}

TEST(CheckBuffers, ConcurrentReadersAndDisjointSpansAreFine) {
  Checker ck(CheckLevel::strict, true, 2);
  std::vector<std::byte> buf(64);
  const simmpi::ConstBytes whole{buf.data(), buf.size()};
  auto r1 = ck.acquire_read(0, whole, "send", 0, 1);
  auto r2 = ck.acquire_read(0, whole, "send", 0, 2);  // two readers: fine
  // Disjoint write next to them on another rank: fine.
  auto w = ck.acquire_write(1, simmpi::MutBytes{buf}, "recv", 0, 3);
  // Release the readers; a writer may now take rank 0's span.
  r1.release();
  r2.release();
  auto w2 = ck.acquire_write(0, simmpi::MutBytes{buf}, "recv", 0, 4);
  SUCCEED();
}

TEST(CheckBuffers, ReaderBlocksWriterWhileLive) {
  Checker ck(CheckLevel::basic, true, 1);
  std::vector<std::byte> buf(16);
  auto r = ck.acquire_read(0, simmpi::ConstBytes{buf}, "send", 0, 0);
  expect_violation("buffer-overlap", [&] {
    (void)ck.acquire_write(0, simmpi::MutBytes{buf}, "recv", 0, 1);
  });
}

// ---------------------------------------------------------------------------
// Count / dtype / capacity on p2p traffic inside a reduction

std::uint64_t open_reduction(Checker& ck, int world_rank, Dtype dt,
                             std::size_t count = 8, int parties = 2) {
  static const std::vector<std::byte> empty;
  return ck.begin_collective(CollKind::allreduce, world_rank, /*ctx=*/1, "rd",
                             parties, /*comm_rank=*/world_rank, /*root=*/0,
                             count, dt, simmpi::ReduceOp::sum,
                             simmpi::ConstBytes{});
}

TEST(CheckTraffic, SendCountMismatchInsideReduction) {
  Checker ck(CheckLevel::basic, false, 2);
  open_reduction(ck, 0, Dtype::f32);
  // 6 bytes is not a whole number of f32 elements.
  expect_violation("count-mismatch",
                   [&] { ck.on_send(0, 1, /*ctx=*/1, /*tag=*/7, 6); });
}

TEST(CheckTraffic, SendOutsideCollectiveIsUnconstrained) {
  Checker ck(CheckLevel::strict, false, 2);
  ck.on_send(0, 1, 0, 0, 6);  // no open reduction: any byte count is legal
  SUCCEED();
}

TEST(CheckTraffic, DtypeMismatchBetweenSenderAndReceiver) {
  Checker ck(CheckLevel::basic, false, 2);
  open_reduction(ck, 1, Dtype::f32);
  simmpi::PostedRecv pr;
  pr.capacity = pr.recv_bytes = 8;
  pr.recv_src = 0;
  pr.recv_tag = 7;
  pr.recv_dtype = static_cast<int>(Dtype::i64);  // sender was reducing i64
  expect_violation("dtype-mismatch", [&] { ck.on_recv_complete(1, 1, pr); });
}

TEST(CheckTraffic, RecvCountMismatchInsideReduction) {
  Checker ck(CheckLevel::basic, false, 2);
  open_reduction(ck, 1, Dtype::f64);
  simmpi::PostedRecv pr;
  pr.capacity = pr.recv_bytes = 12;  // not a whole number of f64
  pr.recv_src = 0;
  pr.recv_dtype = static_cast<int>(Dtype::f64);
  expect_violation("count-mismatch", [&] { ck.on_recv_complete(1, 1, pr); });
}

TEST(CheckTraffic, StrictRequiresExactCapacity) {
  simmpi::PostedRecv pr;
  pr.capacity = 16;
  pr.recv_bytes = 8;
  pr.recv_src = 0;
  Checker basic(CheckLevel::basic, false, 2);
  basic.on_recv_complete(0, 0, pr);  // basic: oversized posts are legal MPI
  Checker strict(CheckLevel::strict, false, 2);
  expect_violation("capacity-mismatch",
                   [&] { strict.on_recv_complete(0, 0, pr); });
}

// ---------------------------------------------------------------------------
// Collective records

TEST(CheckCollectives, ArgumentDivergenceAcrossRanks) {
  Checker ck(CheckLevel::basic, false, 2);
  ck.begin_collective(CollKind::allreduce, 0, 1, "rd", 2, 0, 0, /*count=*/8,
                      Dtype::f32, simmpi::ReduceOp::sum, {});
  expect_violation("collective-argument-mismatch", [&] {
    ck.begin_collective(CollKind::allreduce, 1, 1, "rd", 2, 1, 0, /*count=*/16,
                        Dtype::f32, simmpi::ReduceOp::sum, {});
  });
}

TEST(CheckCollectives, SameCommRankEnteringTwiceIsReentry) {
  Checker ck(CheckLevel::basic, false, 2);
  ck.begin_collective(CollKind::allreduce, 0, 1, "rd", 2, 0, 0, 8, Dtype::f32,
                      simmpi::ReduceOp::sum, {});
  // World rank 1 claims the same comm rank 0 of the same invocation.
  expect_violation("collective-reentry", [&] {
    ck.begin_collective(CollKind::allreduce, 1, 1, "rd", 2, 0, 0, 8, Dtype::f32,
                        simmpi::ReduceOp::sum, {});
  });
}

TEST(CheckCollectives, ResultMismatchAgainstSerialReference) {
  Checker ck(CheckLevel::basic, /*with_data=*/true, 2);
  const std::size_t count = 4;
  std::vector<float> in0{1, 2, 3, 4}, in1{10, 20, 30, 40};
  std::vector<float> wrong{11, 22, 33, 45};  // last element off by one
  auto bytes_of = [](std::vector<float>& v) {
    return simmpi::ConstBytes{reinterpret_cast<const std::byte*>(v.data()),
                              v.size() * sizeof(float)};
  };
  const auto t0 = ck.begin_collective(CollKind::allreduce, 0, 1, "rd", 2, 0, 0,
                                      count, Dtype::f32, simmpi::ReduceOp::sum,
                                      bytes_of(in0));
  const auto t1 = ck.begin_collective(CollKind::allreduce, 1, 1, "rd", 2, 1, 0,
                                      count, Dtype::f32, simmpi::ReduceOp::sum,
                                      bytes_of(in1));
  ck.end_collective(0, t0, bytes_of(wrong));
  try {
    ck.end_collective(1, t1, bytes_of(wrong));
    FAIL() << "expected result-mismatch";
  } catch (const CheckError& e) {
    EXPECT_TRUE(has_rule(e, "result-mismatch")) << e.what();
    // The report names the first bad element and both values.
    EXPECT_NE(std::string(e.what()).find("element 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("45"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("44"), std::string::npos) << e.what();
  }
}

TEST(CheckCollectives, CorrectResultPassesSilently) {
  Checker ck(CheckLevel::strict, true, 2);
  std::vector<float> in0{1, 2}, in1{10, 20}, sum{11, 22};
  auto bytes_of = [](std::vector<float>& v) {
    return simmpi::ConstBytes{reinterpret_cast<const std::byte*>(v.data()),
                              v.size() * sizeof(float)};
  };
  const auto t0 = ck.begin_collective(CollKind::allreduce, 0, 1, "rd", 2, 0, 0,
                                      2, Dtype::f32, simmpi::ReduceOp::sum,
                                      bytes_of(in0));
  const auto t1 = ck.begin_collective(CollKind::allreduce, 1, 1, "rd", 2, 1, 0,
                                      2, Dtype::f32, simmpi::ReduceOp::sum,
                                      bytes_of(in1));
  ck.end_collective(0, t0, bytes_of(sum));
  ck.end_collective(1, t1, bytes_of(sum));
  ck.finalize(false, "", 0, 0);  // no violations accumulated
}

TEST(CheckCollectives, UnbalancedCollectiveReportedAtFinalize) {
  Checker ck(CheckLevel::basic, false, 2);
  ck.begin_collective(CollKind::bcast, 0, 1, "binomial", 2, 0, 0, 8, Dtype::u8,
                      simmpi::ReduceOp::sum, {});
  try {
    ck.finalize(false, "", 0, 0);
    FAIL() << "expected unbalanced-collective";
  } catch (const CheckError& e) {
    EXPECT_TRUE(has_rule(e, "unbalanced-collective")) << e.what();
    const std::string what = e.what();
    EXPECT_NE(what.find("still inside: 0"), std::string::npos) << what;
    EXPECT_NE(what.find("never entered: 1"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Strict-only end-of-run leak checks

TEST(CheckFinalize, StrictFlagsOpenTraceSpans) {
  Checker strict(CheckLevel::strict, false, 1);
  expect_violation("unbalanced-trace-span",
                   [&] { strict.finalize(false, "", 0, 2); });
  Checker basic(CheckLevel::basic, false, 1);
  basic.finalize(false, "", 0, 2);  // basic tolerates open spans
}

TEST(CheckFinalize, StrictFlagsLeakedCollSlots) {
  Checker strict(CheckLevel::strict, false, 1);
  expect_violation("leaked-coll-slot",
                   [&] { strict.finalize(false, "", 3, 0); });
}

TEST(TracerSpans, OpenSpanApiBalances) {
  simmpi::Tracer t;
  EXPECT_EQ(t.open_count(), 0u);
  t.begin("phase", "coll", /*rank=*/0, /*start=*/10);
  t.begin("inner", "coll", 0, 20);
  t.begin("other", "coll", 1, 15);
  EXPECT_EQ(t.open_count(), 3u);
  EXPECT_TRUE(t.end(0, 30));  // pops "inner" (innermost for rank 0)
  EXPECT_TRUE(t.end(0, 40));
  EXPECT_TRUE(t.end(1, 25));
  EXPECT_EQ(t.open_count(), 0u);
  EXPECT_FALSE(t.end(0, 50));  // nothing open: reports imbalance
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].name, "inner");
  EXPECT_EQ(t.spans()[0].end, 30);
}

// ---------------------------------------------------------------------------
// End-to-end through a checked Machine

simmpi::RunOptions checked(CheckLevel level) {
  simmpi::RunOptions opt;
  opt.with_data = false;
  opt.check_level = level;
  return opt;
}

TEST(CheckMachine, UnmatchedSendReportedAtFinalize) {
  Machine m(net::test_cluster(2), 2, 1, checked(CheckLevel::basic));
  expect_violation("unmatched-send", [&] {
    m.run([&](Rank& r) -> sim::CoTask<void> {
      if (r.world_rank() == 0) {
        co_await r.send(m.world(), 1, /*tag=*/5, /*bytes=*/64);
      }
      // rank 1 never posts the receive
    });
  });
}

TEST(CheckMachine, DeadlockAugmentedWithBlockedRequestReport) {
  Machine m(net::test_cluster(2), 2, 1, checked(CheckLevel::basic));
  try {
    m.run([&](Rank& r) -> sim::CoTask<void> {
      if (r.world_rank() == 0) {
        co_await r.recv(m.world(), 1, /*tag=*/3, /*capacity=*/64);
      }
    });
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_TRUE(has_rule(e, "wait-cycle-deadlock")) << e.what();
    EXPECT_TRUE(has_rule(e, "blocked-recv")) << e.what();
    // The blocked-request report names what rank 0 was waiting for.
    const std::string what = e.what();
    EXPECT_NE(what.find("tag=3"), std::string::npos) << what;
  }
}

TEST(CheckMachine, CleanRunWithCheckerIsBitIdenticalInTime) {
  auto run_once = [&](CheckLevel level) {
    Machine m(net::test_cluster(2), 2, 2, checked(level));
    m.run([&](Rank& r) -> sim::CoTask<void> {
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = 1024;
      a.inplace = true;
      // Named spec, not a braced temporary: gcc 12 double-destroys extra
      // non-trivially-destructible temporaries in a co_await full
      // expression (dpmllint: await-temporary).
      const core::CollSpec spec{"rd"};
      co_await core::run_collective(coll::CollKind::allreduce, a, spec);
    });
    return m.now();
  };
  EXPECT_EQ(run_once(CheckLevel::off), run_once(CheckLevel::strict));
}

// An intentionally wrong algorithm: every rank just keeps its own input.
// Registered only in this test binary.
sim::CoTask<void> broken_allreduce(coll::CollArgs a) {
  if (!a.send.empty() && !a.recv.empty()) {
    std::memcpy(a.recv.data(), a.send.data(), a.bytes());
  }
  co_return;
}

const coll::CollRegistration reg_broken{{
    "broken-allreduce",
    coll::CollKind::allreduce,
    coll::CollCaps{},
    [](coll::CollArgs a, const coll::CollSpec&) {
      return broken_allreduce(std::move(a));
    }}};

// Deliberately wrong designs, one per kind but barrier: each runs the
// kind's `auto` rule (`rd` for allreduce) and then damages the output of
// one rank (the root for reduce and gather, comm rank 1 otherwise), or of
// every rank for `broken-flip-all`. Both references, MeasureResult::verified
// and the checker's, must catch each of them.
enum class Damage { flip_one, flip_all, swap_blocks };

sim::CoTask<void> broken_design(CollKind kind, Damage damage,
                                coll::CollArgs a) {
  const coll::CollSpec spec{kind == CollKind::allreduce ? "rd" : "auto"};
  const coll::CollDescriptor& d =
      coll::CollRegistry::instance().at(kind, spec.algo);
  co_await d.make(a, spec);
  const int me = a.comm->rank_of_world(a.rank->world_rank());
  const bool at_root_only =
      kind == CollKind::reduce || kind == CollKind::gather;
  const int victim = at_root_only ? a.root : 1;
  if (a.recv.empty() || (damage != Damage::flip_all && me != victim)) {
    co_return;
  }
  if (damage == Damage::swap_blocks) {
    std::swap_ranges(a.recv.begin(), a.recv.begin() + a.bytes(),
                     a.recv.begin() + a.bytes());
  } else {
    a.recv.back() ^= std::byte{1};
  }
}

coll::CollDescriptor broken_desc(const char* name, CollKind kind,
                                 Damage damage) {
  return {name, kind, coll::CollCaps{},
          [kind, damage](coll::CollArgs a, const coll::CollSpec&) {
            return broken_design(kind, damage, std::move(a));
          }};
}

const coll::CollRegistration reg_broken_kinds[] = {
    coll::CollRegistration{
        broken_desc("broken-flip", CollKind::allreduce, Damage::flip_one)},
    coll::CollRegistration{
        broken_desc("broken-flip", CollKind::reduce, Damage::flip_one)},
    coll::CollRegistration{
        broken_desc("broken-flip", CollKind::bcast, Damage::flip_one)},
    coll::CollRegistration{
        broken_desc("broken-flip-all", CollKind::bcast, Damage::flip_all)},
    coll::CollRegistration{
        broken_desc("broken-flip", CollKind::alltoall, Damage::flip_one)},
    coll::CollRegistration{
        broken_desc("broken-swap", CollKind::alltoall, Damage::swap_blocks)},
    coll::CollRegistration{
        broken_desc("broken-flip", CollKind::allgather, Damage::flip_one)},
    coll::CollRegistration{
        broken_desc("broken-swap", CollKind::allgather, Damage::swap_blocks)},
    coll::CollRegistration{broken_desc("broken-flip", CollKind::reduce_scatter,
                                       Damage::flip_one)},
    coll::CollRegistration{
        broken_desc("broken-flip", CollKind::gather, Damage::flip_one)},
    coll::CollRegistration{
        broken_desc("broken-swap", CollKind::gather, Damage::swap_blocks)},
    coll::CollRegistration{
        broken_desc("broken-flip", CollKind::scatter, Damage::flip_one)},
};

TEST(CheckMachine, BrokenDesignOfEveryKindFailsBothReferences) {
  int broken = 0;
  for (CollKind kind : coll::kAllCollKinds) {
    for (const coll::CollDescriptor* d :
         coll::CollRegistry::instance().list(kind)) {
      if (d->name.rfind("broken-", 0) != 0) continue;
      SCOPED_TRACE(std::string(coll::coll_kind_name(kind)) + "/" + d->name);
      ++broken;
      core::MeasureOptions opt;
      opt.with_data = true;
      const coll::CollSpec spec{d->name};
      EXPECT_FALSE(core::measure_collective(kind, net::cluster_c(), 5, 3, 256,
                                            spec, opt)
                       .verified);
      opt.check = CheckLevel::basic;
      expect_violation("result-mismatch", [&] {
        core::measure_collective(kind, net::cluster_c(), 5, 3, 256, spec, opt);
      });
    }
  }
  EXPECT_EQ(broken, 13);  // broken-allreduce and the twelve above
}

TEST(CheckMachine, BrokenAlgorithmCaughtByResultVerification) {
  simmpi::RunOptions ropt;
  ropt.with_data = true;
  ropt.check_level = CheckLevel::strict;
  Machine m(net::test_cluster(2), 2, 2, ropt);
  const int world = m.world_size();
  const std::size_t count = 32;
  std::vector<std::vector<std::byte>> sendb(world), recvb(world);
  for (int w = 0; w < world; ++w) {
    sendb[static_cast<std::size_t>(w)] =
        simmpi::make_operand(Dtype::f32, count, w, simmpi::ReduceOp::sum, 1);
    recvb[static_cast<std::size_t>(w)].resize(count * sizeof(float));
  }
  expect_violation("result-mismatch", [&] {
    m.run([&](Rank& r) -> sim::CoTask<void> {
      const auto w = static_cast<std::size_t>(r.world_rank());
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = count;
      a.dt = Dtype::f32;
      a.op = simmpi::ReduceOp::sum;
      a.send = sendb[w];
      a.recv = recvb[w];
      const core::CollSpec spec{"broken-allreduce"};
      co_await core::run_collective(coll::CollKind::allreduce, a, spec);
    });
  });
}

}  // namespace
}  // namespace dpml
