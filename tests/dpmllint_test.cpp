// dpmllint: rule behaviour on inline snippets, the intentionally-broken
// fixtures under tests/lint_fixtures/, and the invariant the linter exists
// to keep — the entire src/ tree lints clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using dpml::lint::Finding;

int count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  int n = 0;
  for (const Finding& f : fs) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::vector<Finding> lint(const std::string& src) {
  return dpml::lint::lint_source("snippet.cpp", src);
}

// ---------------------------------------------------------------------------
// Masking

TEST(LintMasking, CommentsAndStringsNeverFire) {
  EXPECT_TRUE(lint("// rand() in a comment\n").empty());
  EXPECT_TRUE(lint("/* std::random_device in a block\n   comment */\n").empty());
  EXPECT_TRUE(lint("const char* s = \"rand() time(nullptr)\";\n").empty());
  EXPECT_TRUE(lint("const char* s = R\"(rand() inside raw)\";\n").empty());
  EXPECT_TRUE(lint("const char* s = \"escaped \\\" rand() \";\n").empty());
}

TEST(LintMasking, LineNumbersSurviveMasking) {
  const auto fs = lint("int a;\n/* long\ncomment */\nint b = rand();\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "raw-random");
  EXPECT_EQ(fs[0].line, 4);
}

// ---------------------------------------------------------------------------
// raw-random / wall-clock

TEST(LintRandom, IdentifierBoundariesRespected) {
  EXPECT_TRUE(lint("int x = operand(3);\n").empty());   // not rand(
  EXPECT_TRUE(lint("int strand(int);\n").empty());      // not rand(
  EXPECT_EQ(count_rule(lint("int x = rand();\n"), "raw-random"), 1);
  EXPECT_EQ(count_rule(lint("std::random_device rd;\n"), "raw-random"), 1);
  EXPECT_EQ(count_rule(lint("auto t = time(nullptr);\n"), "wall-clock"), 1);
  EXPECT_EQ(
      count_rule(lint("auto t = std::chrono::steady_clock::now();\n"),
                 "wall-clock"),
      1);
}

TEST(LintRandom, MemberCallsAreNotLibcCalls) {
  EXPECT_TRUE(lint("long x = timer.time(0);\n").empty());
  EXPECT_TRUE(lint("long x = obj->clock(1);\n").empty());
}

TEST(LintRandom, UtilRngIsExemptFromRawRandomOnly) {
  const std::string src = "std::mt19937 gen;\nauto t = time(nullptr);\n";
  const auto fs = dpml::lint::lint_source("src/util/rng.cpp", src);
  EXPECT_EQ(count_rule(fs, "raw-random"), 0);   // rng may own the primitives
  EXPECT_EQ(count_rule(fs, "wall-clock"), 1);   // but still no wall-clock
}

// ---------------------------------------------------------------------------
// unordered-iteration

TEST(LintUnordered, RangeForOverUnorderedMemberFires) {
  const std::string src =
      "std::unordered_map<int, long> seen_;\n"
      "long f() { long s = 0; for (const auto& [k, v] : seen_) s += v;\n"
      "  return s; }\n";
  const auto fs = lint(src);
  ASSERT_EQ(count_rule(fs, "unordered-iteration"), 1);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(LintUnordered, OrderedContainersAndUnknownRangesAreFine) {
  EXPECT_TRUE(
      lint("std::map<int, int> m_;\nvoid f() { for (auto& kv : m_) {} }\n")
          .empty());
  // A range expression the scanner cannot resolve is not guessed at.
  EXPECT_TRUE(
      lint("std::unordered_map<int, int> m_;\n"
           "void f() { for (auto& kv : sorted_view(m_)) {} }\n")
          .empty());
}

// ---------------------------------------------------------------------------
// coro-ref-capture

TEST(LintCoro, RefCaptureLambdaCoroutineFires) {
  const std::string src =
      "void f(Engine& e) {\n"
      "  int x = 1;\n"
      "  e.spawn([&]() -> Task { co_await x; });\n"
      "}\n";
  const auto fs = lint(src);
  ASSERT_EQ(count_rule(fs, "coro-ref-capture"), 1);
  EXPECT_EQ(fs[0].line, 3);
}

TEST(LintCoro, ValueCapturesAndPlainLambdasAreFine) {
  EXPECT_TRUE(lint("e.spawn([x]() -> Task { co_await x; });\n").empty());
  EXPECT_TRUE(lint("e.call([&] { return x + 1; });\n").empty());
  // Subscripts and attributes are not lambda introducers.
  EXPECT_TRUE(lint("int y = arr[i]; co_await t;\n").empty());
  EXPECT_TRUE(lint("[[nodiscard]] int g(); co_await t;\n").empty());
}

TEST(LintCoro, NamedRefCaptureFires) {
  EXPECT_EQ(count_rule(lint("e.spawn([&x]() -> Task { co_await x; });\n"),
                       "coro-ref-capture"),
            1);
}

// ---------------------------------------------------------------------------
// await-temporary

TEST(LintAwaitTemp, BracedTemporaryInsideCoAwaitFires) {
  const auto fs =
      lint("co_await run_collective(kind, a, {\"rd\"});\n");
  ASSERT_EQ(count_rule(fs, "await-temporary"), 1);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(count_rule(lint("co_await f(1, {x, y});\n"), "await-temporary"),
            1);
}

TEST(LintAwaitTemp, EmptyBracesAndNamedLocalsAreFine) {
  // {} conventionally passes a default span and holds no state.
  EXPECT_TRUE(lint("co_await r.send(c, dst, tag, n, {});\n").empty());
  // The fixed idiom: bind first, then await.
  EXPECT_TRUE(
      lint("CollSpec s{\"rd\"};\nco_await run_collective(kind, a, s);\n")
          .empty());
  // Braces outside a co_await statement are untouched.
  EXPECT_TRUE(lint("auto v = f(1, {2, 3});\n").empty());
  // A lambda body inside the awaited call is not an argument brace.
  EXPECT_TRUE(lint("co_await with([&]() -> T { return g(); });\n").empty());
}

TEST(LintAwaitTemp, TypeNamedTemporaryFires) {
  // A type name before the braces makes a temporary, even of empty braces.
  EXPECT_EQ(count_rule(lint("co_await f(a, T{x, y});\n"), "await-temporary"),
            1);
  EXPECT_EQ(count_rule(lint("co_await f(a, coll::CollSpec{});\n"),
                       "await-temporary"),
            1);
  EXPECT_EQ(count_rule(lint("co_await f(std::vector<int>{1}, b);\n"),
                       "await-temporary"),
            1);
  // Lambda bodies stay exempt, after a trailing return type too.
  EXPECT_EQ(count_rule(lint("co_await with([x]() -> sim::CoTask<void> {\n"
                            "  co_return;\n});\n"),
                       "await-temporary"),
            0);
  EXPECT_EQ(count_rule(lint("co_await with([x]() mutable { return g(); });\n"),
                       "await-temporary"),
            0);
}

// ---------------------------------------------------------------------------
// schedule-fn

TEST(LintScheduleFn, RemovedShimNameFires) {
  const auto fs = lint("void f(Engine& e) { e.schedule_fn(t, cb); }\n");
  ASSERT_EQ(count_rule(fs, "schedule-fn"), 1);
  EXPECT_EQ(fs[0].line, 1);
  // The pooled replacement and boundary-sharing identifiers are fine.
  EXPECT_TRUE(lint("e.schedule_call(t, [] {});\n").empty());
  EXPECT_TRUE(lint("void reschedule_fnord();\n").empty());
}

TEST(LintScheduleFn, NoSanctionedHomeNowThatTheShimIsGone) {
  // The shim itself was deleted; reintroducing the name anywhere — engine
  // included — is a finding.
  const std::string src = "void Engine::schedule_fn(Time t, F fn) {}\n";
  EXPECT_EQ(count_rule(dpml::lint::lint_source("src/sim/engine.hpp", src),
                       "schedule-fn"),
            1);
  EXPECT_EQ(count_rule(dpml::lint::lint_source("src/sim/engine.cpp", src),
                       "schedule-fn"),
            1);
  EXPECT_EQ(count_rule(dpml::lint::lint_source("src/simmpi/machine.cpp", src),
                       "schedule-fn"),
            1);
}

TEST(LintScheduleFn, SuppressibleLikeEveryRule) {
  EXPECT_TRUE(
      lint("e.schedule_fn(t, cb);  // dpmllint: allow(schedule-fn)\n").empty());
}

// ---------------------------------------------------------------------------
// match-order-assumption

TEST(LintMatchOrder, PositionalQueueAccessFires) {
  const auto fs = lint("int s = m.unexpected()[0].src;\n");
  ASSERT_EQ(count_rule(fs, "match-order-assumption"), 1);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(count_rule(lint("auto& e = m.posted().front();\n"),
                       "match-order-assumption"),
            1);
  EXPECT_EQ(count_rule(lint("auto& e = m.unexpected().at(i);\n"),
                       "match-order-assumption"),
            1);
}

TEST(LintMatchOrder, SeqOrderingComparisonFires) {
  EXPECT_EQ(count_rule(lint("bool b = a.seq < c.seq;\n"),
                       "match-order-assumption"),
            1);
  EXPECT_EQ(count_rule(lint("bool b = a->seq >= c->seq;\n"),
                       "match-order-assumption"),
            1);
}

TEST(LintMatchOrder, LookupsCountsAndEqualityAreFine) {
  // Size queries, iteration-to-search, and equality make no order claim.
  EXPECT_TRUE(lint("auto n = m.unexpected().size();\n").empty());
  EXPECT_TRUE(
      lint("for (auto& e : m.unexpected()) { if (e.ctx == c) use(e); }\n")
          .empty());
  EXPECT_TRUE(lint("bool b = a.seq == c.seq;\n").empty());
  // seq as a plain counter, a subscript base, or streamed output is fine.
  EXPECT_TRUE(lint("ks.seq[rank]++;\n").empty());
  EXPECT_TRUE(lint("os << e.seq << '\\n';\n").empty());
  // A free variable named seq (no member access) is out of scope.
  EXPECT_TRUE(lint("int seq = 0; if (seq < n) ++seq;\n").empty());
}

TEST(LintMatchOrder, EngineAndMatcherAreTheSanctionedHomes) {
  const std::string src = "bool lt = a.seq < b.seq;\n";
  EXPECT_TRUE(dpml::lint::lint_source("src/sim/engine.cpp", src).empty());
  EXPECT_TRUE(dpml::lint::lint_source("src/simmpi/message.cpp", src).empty());
  EXPECT_EQ(count_rule(dpml::lint::lint_source("src/coll/flat.cpp", src),
                       "match-order-assumption"),
            1);
}

// ---------------------------------------------------------------------------
// payload-plane

TEST(LintPayloadPlane, DirectPoolCallFiresOutsideThePlane) {
  const auto fs =
      lint("void f(Engine& e) { e.payload_pool().acquire(64); }\n");
  ASSERT_EQ(count_rule(fs, "payload-plane"), 1);
  EXPECT_EQ(fs[0].line, 1);
  // A local merely *named* payload_pool is not a call into the engine.
  EXPECT_TRUE(lint("BufferPool payload_pool;\npayload_pool.merge(o);\n")
                  .empty());
  EXPECT_TRUE(lint("auto r = p.payload_pool_hit_rate;\n").empty());
}

TEST(LintPayloadPlane, EnginePoolAndPlaneFilesAreTheSanctionedHomes) {
  const std::string src = "BufferPool& Engine::payload_pool() { return p_; }\n";
  EXPECT_TRUE(dpml::lint::lint_source("src/sim/engine.hpp", src).empty());
  EXPECT_TRUE(dpml::lint::lint_source("src/sim/engine.cpp", src).empty());
  EXPECT_TRUE(dpml::lint::lint_source("src/sim/pool.hpp", src).empty());
  EXPECT_TRUE(dpml::lint::lint_source("src/sim/dataplane.hpp", src).empty());
  // "sim/" alone is not enough: simmpi transport code must go through the
  // PayloadPlane seam.
  EXPECT_EQ(
      count_rule(dpml::lint::lint_source("src/simmpi/machine.cpp", src),
                 "payload-plane"),
      1);
}

TEST(LintPayloadPlane, SuppressibleLikeEveryRule) {
  EXPECT_TRUE(
      lint("e.payload_pool();  // dpmllint: allow(payload-plane)\n").empty());
}

// ---------------------------------------------------------------------------
// Suppressions

TEST(LintSuppress, SameLinePrevLineAndFileWide) {
  EXPECT_TRUE(lint("int x = rand();  // dpmllint: allow(raw-random)\n").empty());
  EXPECT_TRUE(
      lint("// dpmllint: allow(raw-random)\nint x = rand();\n").empty());
  EXPECT_TRUE(
      lint("// dpmllint: allow-file(raw-random)\nint f();\nint x = rand();\n")
          .empty());
  EXPECT_TRUE(lint("int x = rand();  // dpmllint: allow(all)\n").empty());
  // The wrong rule name does not suppress.
  EXPECT_EQ(
      count_rule(lint("int x = rand();  // dpmllint: allow(wall-clock)\n"),
                 "raw-random"),
      1);
}

// ---------------------------------------------------------------------------
// Output formats

TEST(LintOutput, JsonIsWellFormedAndNamesEveryField) {
  const auto fs = lint("int x = rand();\n");
  std::ostringstream os;
  dpml::lint::print_json(os, fs);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"file\": \"snippet.cpp\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"rule\": \"raw-random\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"line\": 1"), std::string::npos) << j;
  EXPECT_EQ(j.front(), '[');
  EXPECT_EQ(j[j.size() - 2], ']');
}

// ---------------------------------------------------------------------------
// Fixtures

const std::string kRoot = DPML_SOURCE_ROOT;

TEST(LintFixtures, DanglingCoroutineCaught) {
  const auto fs =
      dpml::lint::lint_file(kRoot + "/tests/lint_fixtures/dangling_coro.cc");
  EXPECT_EQ(count_rule(fs, "coro-ref-capture"), 2);  // [&] and [&counter]
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "coro-ref-capture");
}

TEST(LintFixtures, RawRandomAndWallClockCaught) {
  const auto fs =
      dpml::lint::lint_file(kRoot + "/tests/lint_fixtures/raw_random.cc");
  EXPECT_GE(count_rule(fs, "raw-random"), 4);
  EXPECT_GE(count_rule(fs, "wall-clock"), 2);
}

TEST(LintFixtures, UnorderedIterationCaught) {
  const auto fs =
      dpml::lint::lint_file(kRoot + "/tests/lint_fixtures/unordered_iter.cc");
  EXPECT_EQ(count_rule(fs, "unordered-iteration"), 2);
}

TEST(LintFixtures, AwaitTemporaryCaught) {
  const auto fs =
      dpml::lint::lint_file(kRoot + "/tests/lint_fixtures/await_temp.cc");
  EXPECT_EQ(count_rule(fs, "await-temporary"), 4);  // 2 bare + 2 typed
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "await-temporary");
}

TEST(LintFixtures, ScheduleFnShimCaught) {
  const auto fs =
      dpml::lint::lint_file(kRoot + "/tests/lint_fixtures/schedule_fn.cc");
  EXPECT_EQ(count_rule(fs, "schedule-fn"), 2);  // declaration + call site
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "schedule-fn");
}

TEST(LintFixtures, MatchOrderAssumptionCaught) {
  const auto fs =
      dpml::lint::lint_file(kRoot + "/tests/lint_fixtures/match_order.cc");
  EXPECT_EQ(count_rule(fs, "match-order-assumption"), 5);  // 3 queue + 2 seq
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "match-order-assumption");
}

TEST(LintFixtures, PayloadPlaneCaught) {
  const auto fs =
      dpml::lint::lint_file(kRoot + "/tests/lint_fixtures/payload_plane.cc");
  EXPECT_EQ(count_rule(fs, "payload-plane"), 3);  // declaration + 2 calls
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "payload-plane");
}

TEST(LintFixtures, SuppressedFixtureIsClean) {
  const auto fs =
      dpml::lint::lint_file(kRoot + "/tests/lint_fixtures/suppressed.cc");
  EXPECT_TRUE(fs.empty()) << fs.size() << " finding(s), first: "
                          << (fs.empty() ? "" : fs[0].message);
}

// ---------------------------------------------------------------------------
// The tree invariant: src/ and the tools lint clean.

// The fabric subsystem is part of the linted tree (it leans on the exact
// idioms the linter polices: deterministic iteration, engine-time only).
TEST(LintTree, FabricSubsystemIsCovered) {
  const auto files = dpml::lint::collect_sources({kRoot + "/src/fabric"});
  ASSERT_GE(files.size(), 2u) << "src/fabric enumeration looks broken";
  for (const std::string& f : files) {
    const auto fs = dpml::lint::lint_file(f);
    for (const Finding& v : fs) {
      ADD_FAILURE() << v.file << ":" << v.line << ": [" << v.rule << "] "
                    << v.message;
    }
  }
}

TEST(LintTree, AdaptSubsystemIsCovered) {
  // The adaptive re-planning layer sits between the deterministic engine
  // and the tenant feedback signals: a stray wall-clock or raw-random call
  // here would silently break the bit-identical replay contract.
  const auto files = dpml::lint::collect_sources({kRoot + "/src/adapt"});
  ASSERT_GE(files.size(), 2u) << "src/adapt enumeration looks broken";
  for (const std::string& f : files) {
    const auto fs = dpml::lint::lint_file(f);
    for (const Finding& v : fs) {
      ADD_FAILURE() << v.file << ":" << v.line << ": [" << v.rule << "] "
                    << v.message;
    }
  }
}

TEST(LintTree, BenchesAndExamplesAreClean) {
  // The benches and examples are the code users copy from; they follow the
  // same coroutine and determinism rules as src/.
  const auto files = dpml::lint::collect_sources(
      {kRoot + "/bench", kRoot + "/examples"});
  ASSERT_GT(files.size(), 25u) << "bench/examples enumeration looks broken";
  for (const std::string& f : files) {
    const auto fs = dpml::lint::lint_file(f);
    for (const Finding& v : fs) {
      ADD_FAILURE() << v.file << ":" << v.line << ": [" << v.rule << "] "
                    << v.message;
    }
  }
}

TEST(LintTree, WholeSourceTreeIsClean) {
  const auto files = dpml::lint::collect_sources({kRoot + "/src"});
  ASSERT_GT(files.size(), 50u) << "source enumeration looks broken";
  for (const std::string& f : files) {
    const auto fs = dpml::lint::lint_file(f);
    for (const Finding& v : fs) {
      ADD_FAILURE() << v.file << ":" << v.line << ": [" << v.rule << "] "
                    << v.message;
    }
  }
}

}  // namespace
