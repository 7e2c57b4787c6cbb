#include <gtest/gtest.h>

#include <sstream>

#include "core/api.hpp"
#include "net/cluster.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/trace.hpp"

namespace dpml::simmpi {
namespace {

void run_one_allreduce(Machine& m) {
  m.run([&](Rank& r) -> sim::CoTask<void> {
    core::CollSpec spec;
    spec.algo = "dpml";
    spec.leaders = 2;
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &m.world();
    a.count = 1024;
    a.inplace = true;
    co_await core::run_collective(core::CollKind::allreduce, a, spec);
  });
}

TEST(Trace, DisabledByDefault) {
  RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(2), 2, 2, opt);
  EXPECT_FALSE(m.tracing());
  run_one_allreduce(m);  // must not crash without a tracer
}

TEST(Trace, RecordsPhaseSpans) {
  RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(2), 2, 4, opt);
  m.enable_trace();
  run_one_allreduce(m);
  ASSERT_TRUE(m.tracing());
  const auto& spans = m.tracer().spans();
  ASSERT_FALSE(spans.empty());
  bool saw_put = false;
  bool saw_get = false;
  bool saw_net = false;
  bool saw_reduce = false;
  for (const auto& s : spans) {
    EXPECT_GE(s.end, s.start);
    EXPECT_GE(s.rank, 0);
    EXPECT_LT(s.rank, m.world_size());
    saw_put |= s.name == "shm-put";
    saw_get |= s.name == "shm-get";
    saw_net |= s.name == "net-send";
    saw_reduce |= s.name == "reduce";
  }
  EXPECT_TRUE(saw_put);     // phase 1
  EXPECT_TRUE(saw_reduce);  // phase 2
  EXPECT_TRUE(saw_net);     // phase 3
  EXPECT_TRUE(saw_get);     // phase 4
}

TEST(Trace, ChromeJsonIsWellFormedish) {
  Tracer t;
  t.add("a \"quoted\" name", "cat\\egory", 3, sim::us(1.0), sim::us(2.5));
  t.add("b", "net", 0, 0, 0);
  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.5"), std::string::npos);
  // Balanced braces/brackets at the ends.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');
}

TEST(Trace, ChromeJsonEmitsLaneMetadata) {
  RunOptions opt;
  opt.with_data = false;
  Machine m(net::test_cluster(2), 2, 2, opt);
  m.enable_trace();
  run_one_allreduce(m);
  EXPECT_EQ(m.tracer().thread_names().size(), 4u);
  EXPECT_EQ(m.tracer().thread_names().at(3), "rank 3 (node 1)");
  std::ostringstream os;
  m.tracer().write_chrome_json(os);
  const std::string json = os.str();
  // Perfetto lane labels: one process_name plus a thread_name per rank,
  // emitted as 'M' metadata events ahead of the spans.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 0 (node 0)\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 3 (node 1)\""), std::string::npos);
  EXPECT_EQ(json[json.size() - 2], '}');
}

TEST(Trace, ClampsBackwardSpansAndClears) {
  Tracer t;
  t.add("x", "c", 0, sim::us(5.0), sim::us(1.0));  // end < start -> clamped
  EXPECT_EQ(t.spans()[0].end, t.spans()[0].start);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

TEST(Trace, TracingDoesNotChangeSimulatedTime) {
  RunOptions opt;
  opt.with_data = false;
  Machine a(net::test_cluster(2), 2, 4, opt);
  run_one_allreduce(a);
  Machine b(net::test_cluster(2), 2, 4, opt);
  b.enable_trace();
  run_one_allreduce(b);
  EXPECT_EQ(a.now(), b.now());
}

}  // namespace
}  // namespace dpml::simmpi
