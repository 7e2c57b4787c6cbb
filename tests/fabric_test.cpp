// Flow-level fabric invariants: derived link plans enforce every preset's
// nodes_per_leaf/oversubscription, the max-min allocator matches
// hand-computed fair shares, ECMP hashing is deterministic, per-link rate
// conservation holds through whole collective runs, and the registry-wide
// strict-checked matrix stays bit-correct under --fabric. Also locks the
// calibration contract: at 1:1 the flow fabric tracks the LogGP transport
// within a few percent, and a thinner core monotonically slows cross-leaf
// allreduce. The allocator's numerical edges (capacity floor, drain-drift
// tail, same-instant zero-byte flows) have fixtures, and a seeded churn
// property holds it bit-identical to the original global solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "coll/registry.hpp"
#include "core/measure.hpp"
#include "fabric/fabric.hpp"
#include "fabric_ref.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpml {
namespace {

using coll::CollKind;
using coll::CollRegistry;
using fabric::FabricLevel;
using fabric::FabricTopo;
using fabric::FlowFabric;

// ---------------------------------------------------------------------------
// Topology derivation: the enforced meaning of the ClusterConfig fields.

TEST(FabricTopoTest, TestClusterDerivesNonBlockingWays) {
  const auto cfg = net::test_cluster(8);
  const FabricTopo t = FabricTopo::derive(cfg, 8);
  EXPECT_EQ(t.nodes, 8);
  EXPECT_EQ(t.nodes_per_leaf, 4);
  EXPECT_EQ(t.leaves, 2);
  // 1:1 over 4-node leaves of 12 GB/s links: 4 ways at full edge speed.
  EXPECT_EQ(t.ecmp_ways, 4);
  EXPECT_DOUBLE_EQ(t.core_way_gbps, cfg.nic.link_bw);
  EXPECT_DOUBLE_EQ(t.leaf_core_gbps(), 4 * cfg.nic.link_bw);
  // 2 edges per node + up/down ways per leaf.
  EXPECT_EQ(t.num_links(), 2 * 8 + 2 * 2 * 4);
}

TEST(FabricTopoTest, ClusterDDerivesOversubscribedWays) {
  const auto cfg = net::cluster_d();  // npl=2, 11 GB/s links, 1.25:1
  const FabricTopo t = FabricTopo::derive(cfg, cfg.total_nodes);
  EXPECT_EQ(t.nodes_per_leaf, 2);
  // leaf core = 2 * 11 / 1.25 = 17.6 GB/s -> 2 ways of 8.8 GB/s each:
  // strictly thinner than the edge links they feed.
  EXPECT_EQ(t.ecmp_ways, 2);
  EXPECT_NEAR(t.core_way_gbps, 8.8, 1e-12);
  EXPECT_LT(t.core_way_gbps, cfg.nic.link_bw);
}

TEST(FabricTopoTest, OversubscriptionThinsTheWays) {
  auto cfg = net::test_cluster(8);
  cfg.oversubscription = 2.0;
  const FabricTopo t = FabricTopo::derive(cfg, 8);
  // leaf core halves to 24 GB/s: two full-speed ways instead of four.
  EXPECT_EQ(t.ecmp_ways, 2);
  EXPECT_DOUBLE_EQ(t.core_way_gbps, cfg.nic.link_bw);
  EXPECT_DOUBLE_EQ(t.leaf_core_gbps(), 2 * cfg.nic.link_bw);
}

TEST(FabricTopoTest, EveryPresetDerivesCleanly) {
  for (const auto& cfg : net::all_clusters()) {
    const FabricTopo t = FabricTopo::derive(cfg, cfg.total_nodes);
    EXPECT_GE(t.ecmp_ways, 1) << cfg.name;
    EXPECT_GT(t.core_way_gbps, 0.0) << cfg.name;
    EXPECT_LE(t.core_way_gbps, cfg.nic.link_bw + 1e-12) << cfg.name;
    // The carved ways reproduce the declared oversubscription exactly.
    EXPECT_NEAR(t.leaf_core_gbps(),
                cfg.nic.link_bw * cfg.nodes_per_leaf / cfg.oversubscription,
                1e-9)
        << cfg.name;
  }
}

TEST(FabricTopoTest, InvalidConfigsAreRejected) {
  auto cfg = net::test_cluster(4);
  cfg.oversubscription = 0.5;  // a core fatter than the edge demand is a typo
  EXPECT_THROW((void)FabricTopo::derive(cfg, 4), util::InvariantError);
  cfg = net::test_cluster(4);
  cfg.nodes_per_leaf = 0;
  EXPECT_THROW((void)FabricTopo::derive(cfg, 4), util::InvariantError);
}

TEST(FabricLevelTest, NamesRoundTrip) {
  EXPECT_STREQ(fabric::fabric_level_name(FabricLevel::none), "none");
  EXPECT_STREQ(fabric::fabric_level_name(FabricLevel::links), "links");
  EXPECT_EQ(fabric::fabric_level_by_name("links"), FabricLevel::links);
  EXPECT_EQ(fabric::fabric_level_by_name("none"), FabricLevel::none);
  EXPECT_THROW((void)fabric::fabric_level_by_name("wires"),
               util::InvariantError);
}

// ---------------------------------------------------------------------------
// ECMP hashing: stateless, deterministic, in range.

TEST(FabricEcmpTest, DeterministicAndInRange) {
  for (int ways : {1, 2, 4, 24}) {
    for (int s = 0; s < 8; ++s) {
      for (int d = 0; d < 8; ++d) {
        const int w = FlowFabric::ecmp_way(s, d, ways);
        EXPECT_GE(w, 0);
        EXPECT_LT(w, ways);
        EXPECT_EQ(w, FlowFabric::ecmp_way(s, d, ways));  // stateless
        if (ways == 1) {
          EXPECT_EQ(w, 0);
        }
      }
    }
  }
}

TEST(FabricEcmpTest, SpreadsPairsAcrossWays) {
  // Not a uniformity proof — just that the hash is not constant, so the
  // carved ways actually load-share.
  std::vector<int> hits(4, 0);
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s != d) ++hits[static_cast<std::size_t>(FlowFabric::ecmp_way(s, d, 4))];
    }
  }
  for (int w = 0; w < 4; ++w) EXPECT_GT(hits[static_cast<std::size_t>(w)], 0);
}

// ---------------------------------------------------------------------------
// Max-min fairness on hand-computable fixtures, driving FlowFabric directly.

TEST(FabricFairnessTest, TwoFlowsSplitASharedUplinkEvenly) {
  sim::Engine eng;
  const auto cfg = net::test_cluster(4);  // one leaf: 0 -> 1 is 2 links
  FlowFabric ff(eng, cfg, 4);
  std::vector<sim::Time> done;
  double rate_a = 0.0;
  double rate_b = 0.0;
  eng.schedule_call(0, [&]() {
    // Two 2400 B flows 0 -> 1 share node0.up (12 GB/s): 6 GB/s each, and
    // 2400 B / 6 GB/s = 400 ns.
    const auto a = ff.start_flow(0, 1, 2400, cfg.nic.link_bw,
                                 [&](sim::Time t) { done.push_back(t); });
    const auto b = ff.start_flow(0, 1, 2400, cfg.nic.link_bw,
                                 [&](sim::Time t) { done.push_back(t); });
    rate_a = ff.flow_rate_gbps(a);
    rate_b = ff.flow_rate_gbps(b);
  });
  eng.run();
  EXPECT_NEAR(rate_a, 6.0, 1e-6);
  EXPECT_NEAR(rate_b, 6.0, 1e-6);
  ASSERT_EQ(done.size(), 2u);
  // The first completion lands exactly at the fair-share finish; the
  // survivor's rescheduled tail may land one tick later.
  const sim::Time expect = sim::Time{400} * sim::kNanosecond;
  EXPECT_EQ(done[0], expect);
  EXPECT_LE(done[1] - expect, 1);
  EXPECT_EQ(ff.active_flows(), 0);
  EXPECT_EQ(ff.total_flows(), 2u);
  // The shared uplink ran saturated and congested for the whole transfer.
  EXPECT_NEAR(ff.peak_link_utilization(), 1.0, 1e-6);
  EXPECT_GE(ff.link_congested_time(ff.uplink(0), eng.now()), expect);
}

TEST(FabricFairnessTest, CappedFlowFreezesAndLeavesTheRest) {
  sim::Engine eng;
  const auto cfg = net::test_cluster(4);
  FlowFabric ff(eng, cfg, 4);
  double rate_capped = 0.0;
  double rate_free = 0.0;
  eng.schedule_call(0, [&]() {
    // Progressive filling, two rounds: the cap-3 flow freezes at 3 GB/s,
    // then the free flow takes the remaining 9 GB/s of the shared uplink.
    const auto free = ff.start_flow(0, 1, 1 << 20, 12.0, nullptr);
    const auto capped = ff.start_flow(0, 1, 1 << 20, 3.0, nullptr);
    rate_free = ff.flow_rate_gbps(free);
    rate_capped = ff.flow_rate_gbps(capped);
  });
  eng.run();
  EXPECT_NEAR(rate_capped, 3.0, 1e-6);
  EXPECT_NEAR(rate_free, 9.0, 1e-6);
}

TEST(FabricFairnessTest, ThreeFlowBottleneckMatchesHandComputation) {
  sim::Engine eng;
  auto cfg = net::test_cluster(8);
  cfg.nodes_per_leaf = 2;  // nodes {0,1} on leaf 0, {2,3} on leaf 1: 1:1 core
  FlowFabric ff(eng, cfg, 4);
  double r02 = 0.0;
  double r12 = 0.0;
  double r13 = 0.0;
  eng.schedule_call(0, [&]() {
    // Classic max-min fixture: flows 0->2 and 1->2 share node2.down
    // (bottleneck, 6 GB/s each); flow 1->3 then gets node1.up's remainder.
    const auto a = ff.start_flow(0, 2, 1 << 20, 12.0, nullptr);
    const auto b = ff.start_flow(1, 2, 1 << 20, 12.0, nullptr);
    const auto c = ff.start_flow(1, 3, 1 << 20, 12.0, nullptr);
    r02 = ff.flow_rate_gbps(a);
    r12 = ff.flow_rate_gbps(b);
    r13 = ff.flow_rate_gbps(c);
  });
  eng.run();
  EXPECT_NEAR(r02, 6.0, 1e-6);
  EXPECT_NEAR(r12, 6.0, 1e-6);
  // 1->3 is limited only by what 1->2 left on node1.up — unless both of
  // node 1's flows hash to the same (saturable) core way; either way the
  // allocation must be max-min consistent and conserve node1.up.
  EXPECT_GE(r13, 6.0 - 1e-6);
  EXPECT_LE(r12 + r13, 12.0 + 1e-6);
}

TEST(FabricFairnessTest, SingleLegFlowsUseOneEdgeLink) {
  sim::Engine eng;
  const auto cfg = net::test_cluster(4);
  FlowFabric ff(eng, cfg, 4);
  std::vector<sim::Time> done;
  eng.schedule_call(0, [&]() {
    // 1200 B at a full 12 GB/s edge link: 100 ns, no sharing.
    ff.start_uplink_flow(0, 1200, 12.0,
                         [&](sim::Time t) { done.push_back(t); });
    ff.start_downlink_flow(1, 1200, 12.0,
                           [&](sim::Time t) { done.push_back(t); });
  });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], sim::Time{100} * sim::kNanosecond);
  // Every departure reschedules the survivors; a fully-drained survivor's
  // replacement event lands one tick later.
  EXPECT_LE(done[1] - sim::Time{100} * sim::kNanosecond, 1);
  // Disjoint links: neither congested nor shared.
  EXPECT_EQ(ff.link_congested_time(ff.uplink(0), eng.now()), 0);
  EXPECT_NEAR(ff.peak_link_utilization(), 1.0, 1e-6);
}

TEST(FabricFairnessTest, ZeroByteFlowsCompleteAtTheSameInstant) {
  sim::Engine eng;
  const auto cfg = net::test_cluster(4);
  FlowFabric ff(eng, cfg, 4);
  std::vector<sim::Time> done;
  eng.schedule_call(sim::Time{7}, [&]() {
    ff.start_flow(0, 1, 0, 12.0, [&](sim::Time t) { done.push_back(t); });
    EXPECT_EQ(ff.active_flows(), 0);  // control flows occupy no bandwidth
  });
  eng.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], sim::Time{7});
  EXPECT_EQ(ff.total_flows(), 1u);
}

TEST(FabricFairnessTest, CrossLeafFlowsTraverseFourLinksAndContendInCore) {
  sim::Engine eng;
  auto cfg = net::test_cluster(8);
  cfg.nodes_per_leaf = 2;
  cfg.oversubscription = 2.0;  // one 12 GB/s way per leaf
  FlowFabric ff(eng, cfg, 4);
  ASSERT_EQ(ff.topo().ecmp_ways, 1);
  double r0 = 0.0;
  double r1 = 0.0;
  eng.schedule_call(0, [&]() {
    // Distinct sources and destinations: the only shared resource is leaf
    // 0's single core uplink way, which max-min splits 6/6.
    const auto a = ff.start_flow(0, 2, 1 << 20, 12.0, nullptr);
    const auto b = ff.start_flow(1, 3, 1 << 20, 12.0, nullptr);
    r0 = ff.flow_rate_gbps(a);
    r1 = ff.flow_rate_gbps(b);
  });
  eng.run();
  EXPECT_NEAR(r0, 6.0, 1e-6);
  EXPECT_NEAR(r1, 6.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Numerical edges of the allocator and the completion wake.

TEST(FabricNumericsTest, CapacityScaleFloorsAtOneMillionth) {
  // A perturbation may choke a link but never disconnect it: a zero or
  // negative scale clamps to 1e-6 of the base capacity.
  for (double scale : {0.0, -3.0}) {
    sim::Engine eng;
    const auto cfg = net::test_cluster(4);
    FlowFabric ff(eng, cfg, 4);
    ff.set_capacity_scaler([&ff, scale](int link, sim::Time) {
      return link == ff.uplink(0) ? scale : 1.0;
    });
    double rate = 0.0;
    sim::Time done = 0;
    eng.schedule_call(0, [&]() {
      const auto id = ff.start_flow(0, 1, 1200, cfg.nic.link_bw,
                                    [&](sim::Time t) { done = t; });
      rate = ff.flow_rate_gbps(id);
    });
    eng.run();
    EXPECT_DOUBLE_EQ(rate, cfg.nic.link_bw * 1e-6) << scale;
    // 1200 B at 12 KB/s drains in 0.1 s.
    EXPECT_NEAR(sim::to_seconds(done), 0.1, 1e-9) << scale;
    EXPECT_EQ(ff.active_flows(), 0);
  }
}

TEST(FabricNumericsTest, DrainDriftTailPostsExactlyOneWake) {
  // A lone flow's wake lands at ceil(remaining / rate) picoseconds, but
  // draining rate * dt in doubles can leave a tail above kDrainedBytes
  // (1e-6 B) for very large flows. The tail is re-timed through one fresh
  // wake with no stale wakes. Replay the fabric's arithmetic to find such
  // a flow size and predict its wake count and completion instant.
  const double rate = 7.3e9;  // the flow's cap binds below the 12 GB/s link
  std::uint64_t bytes = 0;
  std::uint64_t wakes = 0;
  sim::Time finish = 0;
  for (std::uint64_t k = 0; k < 4096 && wakes < 2; ++k) {
    bytes = (std::uint64_t{1} << 40) + k * 977;
    double rem = static_cast<double>(bytes);
    wakes = 0;
    finish = 0;
    do {
      const sim::Time dt = std::max<sim::Time>(
          1, static_cast<sim::Time>(std::ceil(
                 rem / rate * static_cast<double>(sim::kSecond))));
      finish += dt;
      ++wakes;
      rem -= std::min(rem, rate * sim::to_seconds(dt));
    } while (rem > 1e-6);
  }
  ASSERT_GE(wakes, 2u) << "no drifting flow size found";

  sim::Engine eng;
  const auto cfg = net::test_cluster(4);
  FlowFabric ff(eng, cfg, 4);
  sim::Time done = 0;
  eng.schedule_call(0, [&]() {
    ff.start_flow(0, 1, bytes, rate / 1e9, [&](sim::Time t) { done = t; });
  });
  eng.run();
  EXPECT_EQ(done, finish);
  EXPECT_EQ(ff.perf().wakes, wakes);
  EXPECT_EQ(ff.perf().stale_wakes, 0u);
  // The start event plus one event per wake: never a second pending wake.
  EXPECT_EQ(eng.events_processed(), 1 + wakes);
}

TEST(FabricNumericsTest, ZeroByteFlowsCompleteInScheduleOrder) {
  sim::Engine eng;
  const auto cfg = net::test_cluster(4);
  FlowFabric ff(eng, cfg, 4);
  std::vector<std::pair<char, sim::Time>> order;
  auto log = [&](char c) {
    return [&order, c](sim::Time t) { order.emplace_back(c, t); };
  };
  eng.schedule_call(sim::Time{7}, [&]() {
    ff.start_flow(0, 1, 0, 12.0, log('a'));
    // A live flow in between re-times the fabric's wake; it must not
    // reorder the same-instant control completions around it.
    ff.start_flow(2, 3, 4096, 12.0, log('z'));
    eng.schedule_call(sim::Time{7}, [&]() { order.emplace_back('x', eng.now()); });
    ff.start_uplink_flow(1, 0, 12.0, log('b'));
    ff.start_flow(3, 2, 0, 12.0, log('c'));
  });
  eng.run();
  ASSERT_EQ(order.size(), 5u);
  const std::string seq = {order[0].first, order[1].first, order[2].first,
                           order[3].first, order[4].first};
  EXPECT_EQ(seq, "axbcz");
  for (int i = 0; i < 4; ++i) EXPECT_EQ(order[i].second, sim::Time{7});
  EXPECT_GT(order[4].second, sim::Time{7});
  EXPECT_EQ(ff.total_flows(), 4u);
}

TEST(FabricNumericsTest, EqualEtasWakeTheLowestIdFirst) {
  // Three identical flows on disjoint uplinks share one ETA. The wake goes
  // to the lowest id at its batch seq, so an event posted after the flows
  // at that instant fires after the first completion; each survivor's
  // drained tail then lands one tick after the previous completion.
  sim::Engine eng;
  const auto cfg = net::test_cluster(4);
  FlowFabric ff(eng, cfg, 4);
  std::vector<std::pair<int, sim::Time>> order;
  const sim::Time eta = sim::Time{100} * sim::kNanosecond;  // 1200 B at 12 GB/s
  eng.schedule_call(0, [&]() {
    for (int n = 0; n < 3; ++n) {
      ff.start_uplink_flow(n, 1200, cfg.nic.link_bw, [&order, n](sim::Time t) {
        order.emplace_back(n, t);
      });
    }
    eng.schedule_call(eta, [&]() { order.emplace_back(-1, eng.now()); });
  });
  eng.run();
  const std::vector<std::pair<int, sim::Time>> want = {
      {0, eta}, {-1, eta}, {1, eta + 1}, {2, eta + 2}};
  EXPECT_EQ(order, want);
}

// ---------------------------------------------------------------------------
// Oracle: the touched-link allocator and its single completion wake against
// the original global solver with per-flow events (tests/fabric_ref.hpp),
// bit for bit, under seeded random churn.

struct ChurnFlow {
  sim::Time at = -1;  // arrival instant; -1 for a follow-on
  int kind = 0;       // 0 full path, 1 uplink only, 2 downlink only
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  double cap_gbps = 0.0;
  int follow = -1;  // flow started when this one completes, or -1
};

struct CapWindow {
  int link;
  sim::Time from;
  sim::Time until;
  double scale;
};

struct Outage {
  int leaf;  // -1: the way on every leaf
  int way;
  sim::Time down;
  sim::Time up;  // 0: never recovers
};

struct Churn {
  net::ClusterConfig cfg;
  int nodes = 0;
  std::vector<ChurnFlow> flows;
  std::vector<CapWindow> windows;
  std::vector<Outage> outages;
};

Churn make_churn(const net::ClusterConfig& cfg, int nodes,
                 std::uint64_t seed) {
  util::SplitMix64 r(seed, 12);
  const FabricTopo t = FabricTopo::derive(cfg, nodes);
  Churn c;
  c.cfg = cfg;
  c.nodes = nodes;
  auto pick = [&](sim::Time at) {
    ChurnFlow f;
    f.at = at;
    const auto roll = r.next_below(10);
    f.kind = roll < 7 ? 0 : (roll < 9 ? 1 : 2);
    f.src = static_cast<int>(r.next_below(static_cast<std::uint64_t>(nodes)));
    f.dst = static_cast<int>(
        r.next_below(static_cast<std::uint64_t>(nodes - 1)));
    if (f.dst >= f.src) ++f.dst;
    f.bytes = r.next_below(8) == 0 ? 0 : 512 + r.next_below(1 << 20);
    f.cap_gbps = r.next_below(2) == 0
                     ? cfg.nic.link_bw
                     : cfg.nic.link_bw * (0.1 + 0.9 * r.next_double());
    return f;
  };
  constexpr int kArrivals = 150;
  for (int i = 0; i < kArrivals; ++i) {
    c.flows.push_back(pick(sim::us(r.next_double() * 300.0)));
  }
  // Bursts of identical flows at one instant: equal ETAs exercise the
  // lowest-id tie-break of the completion wake.
  for (int b = 0; b < 6; ++b) {
    ChurnFlow f = pick(sim::us(r.next_double() * 300.0));
    f.kind = 1;
    for (int n = 0; n < 3; ++n) {
      f.src = (b * 3 + n) % nodes;
      c.flows.push_back(f);
    }
  }
  for (int i = 0; i < kArrivals; ++i) {
    if (r.next_below(10) < 3) {
      c.flows[static_cast<std::size_t>(i)].follow =
          static_cast<int>(c.flows.size());
      c.flows.push_back(pick(-1));
    }
  }
  const double scales[] = {0.5, 0.1, 0.0, -1.0};
  for (int i = 0; i < 8; ++i) {
    CapWindow w;
    w.link = static_cast<int>(
        r.next_below(static_cast<std::uint64_t>(t.num_links())));
    w.from = sim::us(r.next_double() * 250.0);
    w.until = w.from + sim::us(5.0 + r.next_double() * 60.0);
    w.scale = scales[r.next_below(4)];
    c.windows.push_back(w);
  }
  // The last way never fails, so every leaf pair keeps a live way.
  for (int i = 0; i < 4 && t.ecmp_ways >= 2; ++i) {
    Outage o;
    o.leaf = static_cast<int>(
                 r.next_below(static_cast<std::uint64_t>(t.leaves + 1))) - 1;
    o.way = static_cast<int>(
        r.next_below(static_cast<std::uint64_t>(t.ecmp_ways - 1)));
    o.down = sim::us(r.next_double() * 250.0);
    o.up = r.next_below(5) == 0 ? 0
                                : o.down + sim::us(10.0 + r.next_double() * 100.0);
    c.outages.push_back(o);
  }
  return c;
}

struct ChurnLog {
  std::vector<double> rates;  // every live flow's rate after each event
  std::vector<std::pair<std::uint64_t, sim::Time>> done;  // (id, instant)
  sim::Time end = 0;          // engine clock after the queue drained
  double peak_util = 0.0;
  double max_avg_util = 0.0;
};

template <typename Fab>
ChurnLog drive_churn(const Churn& c, sim::SchedulerKind sched) {
  sim::Engine eng(sched);
  Fab ff(eng, c.cfg, c.nodes);
  ChurnLog log;
  std::vector<std::uint64_t> ids(c.flows.size(), 0);
  std::vector<std::uint64_t> live;  // ascending: ids are issued in order
  auto sample = [&]() {
    for (std::uint64_t id : live) log.rates.push_back(ff.flow_rate_gbps(id));
  };
  std::function<void(std::size_t)> start = [&](std::size_t i) {
    const ChurnFlow& f = c.flows[i];
    auto done = [&, i](sim::Time t) {
      log.done.emplace_back(ids[i], t);
      std::erase(live, ids[i]);
      sample();
      const int next = c.flows[i].follow;
      if (next >= 0) start(static_cast<std::size_t>(next));
    };
    if (f.kind == 0) {
      ids[i] = ff.start_flow(f.src, f.dst, f.bytes, f.cap_gbps, done);
    } else if (f.kind == 1) {
      ids[i] = ff.start_uplink_flow(f.src, f.bytes, f.cap_gbps, done);
    } else {
      ids[i] = ff.start_downlink_flow(f.src, f.bytes, f.cap_gbps, done);
    }
    if (f.bytes > 0) live.push_back(ids[i]);
    sample();
  };
  ff.set_capacity_scaler([&c](int link, sim::Time t) {
    double s = 1.0;
    for (const CapWindow& w : c.windows) {
      if (w.link == link && t >= w.from && t < w.until) s = std::min(s, w.scale);
    }
    return s;
  });
  std::vector<sim::Time> bounds;
  for (const CapWindow& w : c.windows) {
    bounds.push_back(w.from);
    bounds.push_back(w.until);
  }
  ff.schedule_reallocations(bounds);
  for (const Outage& o : c.outages) {
    eng.schedule_call(o.down, [&, o]() {
      ff.set_way_down(o.leaf, o.way, true);
      sample();
    });
    if (o.up > 0) {
      eng.schedule_call(o.up, [&, o]() {
        ff.set_way_down(o.leaf, o.way, false);
        sample();
      });
    }
  }
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    if (c.flows[i].at >= 0) {
      eng.schedule_call(c.flows[i].at, [&start, i]() { start(i); });
    }
  }
  eng.run();
  log.end = eng.now();
  ff.finish(log.end);
  log.peak_util = ff.peak_link_utilization();
  log.max_avg_util = ff.max_avg_link_utilization(log.end);
  return log;
}

struct OracleCase {
  const char* cluster;
  int nodes;
  std::uint64_t seed;
  // Ignored by the engine (see sim::SchedulerKind); passed through the shim
  // constructor the benchmark driver still calls.
  sim::SchedulerKind sched;
};

class FabricOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(FabricOracleTest, RandomChurnMatchesTheGlobalSolverBitForBit) {
  const OracleCase& oc = GetParam();
  const Churn c =
      make_churn(net::cluster_by_name(oc.cluster), oc.nodes, oc.seed);
  const ChurnLog want = drive_churn<fabric_ref::RefFabric>(c, oc.sched);
  const ChurnLog got = drive_churn<FlowFabric>(c, oc.sched);
  ASSERT_EQ(got.rates.size(), want.rates.size());
  for (std::size_t i = 0; i < want.rates.size(); ++i) {
    ASSERT_EQ(got.rates[i], want.rates[i]) << "rate sample " << i;
  }
  ASSERT_EQ(got.done.size(), want.done.size());
  for (std::size_t i = 0; i < want.done.size(); ++i) {
    ASSERT_EQ(got.done[i], want.done[i]) << "completion " << i;
  }
  EXPECT_EQ(got.end, want.end);
  EXPECT_EQ(got.peak_util, want.peak_util);
  EXPECT_EQ(got.max_avg_util, want.max_avg_util);
  // Every scripted flow (arrivals and follow-ons) ran to completion.
  EXPECT_EQ(got.done.size(), c.flows.size());
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAD, FabricOracleTest,
    ::testing::Values(
        OracleCase{"A", 40, 1, sim::SchedulerKind::binary_heap},
        OracleCase{"A", 40, 2, sim::SchedulerKind::calendar},
        OracleCase{"A", 40, 3, sim::SchedulerKind::binary_heap},
        OracleCase{"D", 12, 1, sim::SchedulerKind::binary_heap},
        OracleCase{"D", 12, 2, sim::SchedulerKind::calendar},
        OracleCase{"D", 12, 3, sim::SchedulerKind::binary_heap}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.cluster) + "_seed" +
             std::to_string(info.param.seed) + "_" +
             (info.param.sched == sim::SchedulerKind::calendar ? "calendar"
                                                               : "heap");
    });

// ---------------------------------------------------------------------------
// Whole-machine runs through the measurement harness.

core::MeasureOptions fabric_opt(FabricLevel level) {
  core::MeasureOptions opt;
  opt.iterations = 2;
  opt.warmup = 1;
  opt.fabric = level;
  return opt;
}

double dpml_latency(const net::ClusterConfig& cfg, std::size_t bytes,
                    const core::MeasureOptions& opt,
                    core::MeasureResult* out = nullptr) {
  coll::CollSpec spec;
  spec.algo = "dpml";
  spec.leaders = 2;
  const auto r = core::measure_collective(CollKind::allreduce, cfg, 4, 4,
                                          bytes, spec, opt);
  if (out != nullptr) *out = r;
  return r.avg_us;
}

TEST(FabricMachineTest, MetadataIsRecordedOnlyUnderFabric) {
  const auto cfg = net::test_cluster(4);
  core::MeasureResult off;
  dpml_latency(cfg, 65536, fabric_opt(FabricLevel::none), &off);
  EXPECT_FALSE(off.fabric_links);
  EXPECT_DOUBLE_EQ(off.max_link_util, 0.0);

  core::MeasureResult on;
  dpml_latency(cfg, 65536, fabric_opt(FabricLevel::links), &on);
  EXPECT_TRUE(on.fabric_links);
  EXPECT_DOUBLE_EQ(on.oversubscription, cfg.oversubscription);
  // Real traffic crossed the links, and the time-averaged utilization of
  // the busiest link can never exceed 1 (rate conservation; the allocator
  // additionally DPML_CHECKs instantaneous conservation on every recompute).
  EXPECT_GT(on.max_link_util, 0.0);
  EXPECT_LE(on.max_link_util, 1.0 + 1e-6);
}

TEST(FabricMachineTest, FabricRunsAreDeterministic) {
  const auto cfg = net::test_cluster(4);
  const double a = dpml_latency(cfg, 65536, fabric_opt(FabricLevel::links));
  const double b = dpml_latency(cfg, 65536, fabric_opt(FabricLevel::links));
  EXPECT_EQ(a, b);  // exact: same event order, same allocations
}

TEST(FabricMachineTest, NonBlockingFabricTracksLogGP) {
  // Calibration contract: on a 1:1 cluster the flows never contend, so the
  // flow fabric must reproduce the LogGP transport within a few percent
  // (same endpoint serialization, same path latencies).
  const auto cfg = net::test_cluster(4);
  for (std::size_t bytes : {2048ul, 65536ul}) {
    const double loggp =
        dpml_latency(cfg, bytes, fabric_opt(FabricLevel::none));
    const double flows =
        dpml_latency(cfg, bytes, fabric_opt(FabricLevel::links));
    EXPECT_NEAR(flows / loggp, 1.0, 0.05)
        << "bytes=" << bytes << " loggp=" << loggp << " flows=" << flows;
  }
}

TEST(FabricMachineTest, ThinnerCoreMonotonicallySlowsAllreduce) {
  // Edge-saturating NICs on 2-node leaves: the cross-leaf leader exchange
  // is exactly the demand an oversubscribed core cannot carry.
  auto cfg = net::test_cluster(4);
  cfg.nodes_per_leaf = 2;
  cfg.nic.proc_bw = cfg.nic.link_bw;
  std::vector<double> lat;
  for (double os : {1.0, 2.0, 4.0}) {
    cfg.oversubscription = os;
    lat.push_back(dpml_latency(cfg, 262144, fabric_opt(FabricLevel::links)));
  }
  EXPECT_GT(lat[1], lat[0]);
  EXPECT_GE(lat[2], lat[1]);
  EXPECT_GT(lat[2], lat[0]);
}

// ---------------------------------------------------------------------------
// Registry-wide matrix under --fabric with strict checking and real data:
// the flow model changes *when* bytes move, never *which* bytes move.

TEST(FabricMatrixTest, EveryAlgorithmStaysBitCorrectUnderFabric) {
  const net::ClusterConfig cfg = net::cluster_by_name("test");
  constexpr int kNodes = 3;
  constexpr int kPpn = 4;
  const std::size_t sizes[] = {64, 8192};  // eager and rendezvous
  for (CollKind kind : coll::kAllCollKinds) {
    for (const coll::CollDescriptor* d : CollRegistry::instance().list(kind)) {
      if (kNodes * kPpn < d->caps.min_comm_size) continue;
      for (std::size_t bytes : sizes) {
        core::MeasureOptions opt;
        opt.iterations = 2;
        opt.warmup = 0;
        opt.with_data = true;
        opt.root = 1;
        opt.check = check::CheckLevel::strict;
        opt.fabric = FabricLevel::links;
        coll::CollSpec spec;
        spec.algo = d->name;
        spec.leaders = 2;
        const std::string what = std::string(coll::coll_kind_name(kind)) +
                                 "/" + d->name + " bytes=" +
                                 std::to_string(bytes);
        core::MeasureResult res;
        ASSERT_NO_THROW(res = core::measure_collective(kind, cfg, kNodes,
                                                       kPpn, bytes, spec,
                                                       opt))
            << what;
        EXPECT_TRUE(res.verified) << what;
        EXPECT_TRUE(res.fabric_links) << what;
      }
    }
  }
}

}  // namespace
}  // namespace dpml
