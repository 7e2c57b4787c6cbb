// Test-only reference max-min solver: the flow fabric's original global
// allocator, kept as an oracle for fabric/fabric.cpp.
//
// `recompute` re-runs progressive filling over every link and every live
// flow and re-sums every link each round; `reschedule` posts one
// completion event per live flow and marks the older ones stale through
// per-flow generation counters. Both are the original code, unchanged, so
// a property test can drive this class and FlowFabric through the same
// churn and require bit-identical rates, completion times and end-of-run
// clocks. Group accounting, listeners and the observation helpers are left
// out; everything the allocator's results depend on is kept.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "fabric/fabric.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/error.hpp"

namespace dpml::fabric_ref {

class RefFabric {
 public:
  using FlowId = std::uint64_t;
  using Completion = std::function<void(sim::Time)>;
  static constexpr int kAllLeaves = -1;

  RefFabric(sim::Engine& engine, const net::ClusterConfig& cfg, int nodes)
      : engine_(engine), topo_(fabric::FabricTopo::derive(cfg, nodes)) {
    for (int n = 0; n < 2 * topo_.nodes; ++n) {
      add_link(n % topo_.nodes, topo_.node_link_gbps);
    }
    for (int w = 0; w < 2 * topo_.leaves * topo_.ecmp_ways; ++w) {
      add_link(-1, topo_.core_way_gbps);
    }
  }

  const fabric::FabricTopo& topo() const { return topo_; }
  int uplink(int node) const { return node; }
  int downlink(int node) const { return topo_.nodes + node; }
  int leaf_uplink(int leaf, int way) const {
    return 2 * topo_.nodes + leaf * topo_.ecmp_ways + way;
  }
  int leaf_downlink(int leaf, int way) const {
    return leaf_uplink(leaf, way) + topo_.leaves * topo_.ecmp_ways;
  }

  int choose_way(int src_node, int dst_node) const {
    const int ways = topo_.ecmp_ways;
    const int start = fabric::FlowFabric::ecmp_way(src_node, dst_node, ways);
    if (down_links_ == 0) return start;
    const int src_leaf = src_node / topo_.nodes_per_leaf;
    const int dst_leaf = dst_node / topo_.nodes_per_leaf;
    for (int k = 0; k < ways; ++k) {
      const int w = (start + k) % ways;
      if (!links_[static_cast<std::size_t>(leaf_uplink(src_leaf, w))].down &&
          !links_[static_cast<std::size_t>(leaf_downlink(dst_leaf, w))].down) {
        return w;
      }
    }
    DPML_CHECK_MSG(false, "no live ECMP way");
    return start;
  }

  void set_way_down(int leaf, int way, bool down) {
    const sim::Time now = engine_.now();
    advance(now);
    const int lo = (leaf == kAllLeaves) ? 0 : leaf;
    const int hi = (leaf == kAllLeaves) ? topo_.leaves - 1 : leaf;
    for (int l = lo; l <= hi; ++l) {
      links_[static_cast<std::size_t>(leaf_uplink(l, way))].down = down;
      links_[static_cast<std::size_t>(leaf_downlink(l, way))].down = down;
    }
    down_links_ = 0;
    for (const Link& l : links_) {
      if (l.down) ++down_links_;
    }
    for (auto& [id, f] : flows_) {
      (void)id;
      if (f.nlinks != 4) continue;
      const int w = choose_way(f.src, f.dst);
      f.links[1] = leaf_uplink(f.src / topo_.nodes_per_leaf, w);
      f.links[2] = leaf_downlink(f.dst / topo_.nodes_per_leaf, w);
    }
    recompute(now);
    reschedule(now);
  }

  FlowId start_flow(int src_node, int dst_node, std::uint64_t bytes,
                    double rate_cap_gbps, Completion done) {
    const int src_leaf = src_node / topo_.nodes_per_leaf;
    const int dst_leaf = dst_node / topo_.nodes_per_leaf;
    int path[4];
    int n = 0;
    path[n++] = uplink(src_node);
    if (src_leaf != dst_leaf) {
      const int way = choose_way(src_node, dst_node);
      path[n++] = leaf_uplink(src_leaf, way);
      path[n++] = leaf_downlink(dst_leaf, way);
    }
    path[n++] = downlink(dst_node);
    return launch(path, n, bytes, rate_cap_gbps, std::move(done), src_node,
                  dst_node);
  }
  FlowId start_uplink_flow(int node, std::uint64_t bytes, double rate_cap_gbps,
                           Completion done) {
    const int path[1] = {uplink(node)};
    return launch(path, 1, bytes, rate_cap_gbps, std::move(done), node, -1);
  }
  FlowId start_downlink_flow(int node, std::uint64_t bytes,
                             double rate_cap_gbps, Completion done) {
    const int path[1] = {downlink(node)};
    return launch(path, 1, bytes, rate_cap_gbps, std::move(done), node, -1);
  }

  void set_capacity_scaler(std::function<double(int, sim::Time)> fn) {
    capacity_scaler_ = std::move(fn);
  }
  void schedule_reallocations(const std::vector<sim::Time>& times) {
    for (sim::Time t : times) {
      engine_.schedule_call(t, [this]() {
        const sim::Time now = engine_.now();
        advance(now);
        recompute(now);
        reschedule(now);
      });
    }
  }

  void finish(sim::Time now) { advance(now); }
  double flow_rate_gbps(FlowId id) const {
    auto it = flows_.find(id);
    DPML_CHECK_MSG(it != flows_.end(), "querying a completed fabric flow");
    return it->second.rate / 1e9;
  }
  double peak_link_utilization() const { return peak_util_; }
  double max_avg_link_utilization(sim::Time now) const {
    double m = 0.0;
    for (const Link& l : links_) {
      double busy = l.busy_integral;
      if (now > last_ && l.cap > 0.0) {
        busy += (l.load / l.cap) * static_cast<double>(now - last_);
      }
      if (now > 0) m = std::max(m, busy / static_cast<double>(now));
    }
    return m;
  }

 private:
  static constexpr double kGiga = 1e9;
  static constexpr double kRelEps = 1e-9;
  static constexpr double kDrainedBytes = 1e-6;

  struct Link {
    int node = -1;
    double base_gbps = 0.0;
    double cap = 0.0;
    double load = 0.0;
    int nflows = 0;
    double busy_integral = 0.0;
    bool down = false;
  };
  struct Flow {
    int links[4] = {0, 0, 0, 0};
    int nlinks = 0;
    int src = -1;
    int dst = -1;
    double remaining = 0.0;
    double rate = 0.0;
    double cap = 0.0;
    std::uint64_t gen = 0;
    Completion done;
  };

  void add_link(int node, double gbps) {
    Link l;
    l.node = node;
    l.base_gbps = gbps;
    l.cap = gbps * kGiga;
    links_.push_back(l);
  }

  FlowId launch(const int* links, int nlinks, std::uint64_t bytes,
                double rate_cap_gbps, Completion done, int src, int dst) {
    DPML_CHECK(rate_cap_gbps > 0.0);
    const sim::Time now = engine_.now();
    const FlowId id = next_id_++;
    if (bytes == 0) {
      engine_.schedule_call(now, [done = std::move(done), now]() { done(now); });
      return id;
    }
    advance(now);
    Flow f;
    for (int i = 0; i < nlinks; ++i) f.links[i] = links[i];
    f.nlinks = nlinks;
    f.src = src;
    f.dst = dst;
    f.remaining = static_cast<double>(bytes);
    f.cap = rate_cap_gbps * kGiga;
    f.done = std::move(done);
    flows_.emplace(id, std::move(f));
    recompute(now);
    reschedule(now);
    return id;
  }

  double scaled_capacity(int link, sim::Time now) const {
    const Link& l = links_[static_cast<std::size_t>(link)];
    double scale = 1.0;
    if (capacity_scaler_) {
      scale = capacity_scaler_(link, now);
      scale = std::max(scale, 1e-6);
    }
    return l.base_gbps * kGiga * scale;
  }

  void advance(sim::Time now) {
    DPML_CHECK(now >= last_);
    const sim::Time dt = now - last_;
    if (dt == 0) return;
    const double dt_s = sim::to_seconds(dt);
    for (auto& [id, f] : flows_) {
      (void)id;
      const double drained = std::min(f.remaining, f.rate * dt_s);
      f.remaining -= drained;
    }
    for (Link& l : links_) {
      if (l.cap > 0.0 && l.load > 0.0) {
        l.busy_integral += (l.load / l.cap) * static_cast<double>(dt);
      }
    }
    last_ = now;
  }

  void recompute(sim::Time now) {
    for (Link& l : links_) {
      l.cap = scaled_capacity(static_cast<int>(&l - links_.data()), now);
      l.load = 0.0;
      l.nflows = 0;
    }
    for (auto& [id, f] : flows_) {
      (void)id;
      f.rate = -1.0;  // unfrozen
      for (int i = 0; i < f.nlinks; ++i) {
        ++links_[static_cast<std::size_t>(f.links[i])].nflows;
      }
    }

    int unfrozen = static_cast<int>(flows_.size());
    while (unfrozen > 0) {
      double level = std::numeric_limits<double>::infinity();
      for (const Link& l : links_) {
        if (l.nflows > 0) {
          level = std::min(level, (l.cap - l.load) / l.nflows);
        }
      }
      for (const auto& [id, f] : flows_) {
        (void)id;
        if (f.rate < 0.0) level = std::min(level, f.cap);
      }
      DPML_CHECK(level >= 0.0 && std::isfinite(level));
      const double freeze_at = level * (1.0 + kRelEps) + 1.0;
      for (auto& [id, f] : flows_) {
        (void)id;
        if (f.rate >= 0.0) continue;
        bool frozen = f.cap <= freeze_at;
        for (int i = 0; i < f.nlinks && !frozen; ++i) {
          const Link& l = links_[static_cast<std::size_t>(f.links[i])];
          frozen = (l.cap - l.load) / l.nflows <= freeze_at;
        }
        if (!frozen) continue;
        f.rate = std::min(level, f.cap);
        --unfrozen;
      }
      for (Link& l : links_) {
        l.load = 0.0;
        l.nflows = 0;
      }
      for (const auto& [id, f] : flows_) {
        (void)id;
        for (int i = 0; i < f.nlinks; ++i) {
          Link& l = links_[static_cast<std::size_t>(f.links[i])];
          if (f.rate >= 0.0) {
            l.load += f.rate;
          } else {
            ++l.nflows;
          }
        }
      }
    }

    for (const auto& [id, f] : flows_) {
      (void)id;
      for (int i = 0; i < f.nlinks; ++i) {
        ++links_[static_cast<std::size_t>(f.links[i])].nflows;
      }
    }

    for (Link& l : links_) {
      DPML_CHECK_MSG(l.load <= l.cap * (1.0 + 1e-6) + 1.0,
                     "reference fabric link over-allocated");
      if (l.cap > 0.0) {
        peak_util_ = std::max(peak_util_, l.load / l.cap);
      }
    }
  }

  void reschedule(sim::Time now) {
    for (auto& [id, f] : flows_) {
      ++f.gen;
      DPML_CHECK(f.rate > 0.0);
      const double eta_s = f.remaining / f.rate;
      const sim::Time eta =
          now + std::max<sim::Time>(
                    1, static_cast<sim::Time>(std::ceil(
                           eta_s * static_cast<double>(sim::kSecond))));
      const FlowId fid = id;
      const std::uint64_t gen = f.gen;
      engine_.schedule_call(
          eta, [this, fid, gen]() { on_completion_event(fid, gen); });
    }
  }

  void on_completion_event(FlowId id, std::uint64_t gen) {
    auto it = flows_.find(id);
    if (it == flows_.end() || it->second.gen != gen) return;  // stale event
    const sim::Time now = engine_.now();
    advance(now);
    if (it->second.remaining > kDrainedBytes) {
      reschedule(now);
      return;
    }
    Completion done = std::move(it->second.done);
    flows_.erase(it);
    recompute(now);
    reschedule(now);
    if (done) done(now);
  }

  sim::Engine& engine_;
  fabric::FabricTopo topo_;
  std::vector<Link> links_;
  std::map<FlowId, Flow> flows_;
  FlowId next_id_ = 0;
  sim::Time last_ = 0;
  double peak_util_ = 0.0;
  int down_links_ = 0;
  std::function<double(int, sim::Time)> capacity_scaler_;
};

}  // namespace dpml::fabric_ref
