#include "fabric/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace dpml::fabric {

namespace {

constexpr double kGiga = 1e9;           // decimal GB/s -> bytes/s
constexpr double kRelEps = 1e-9;        // water-filling freeze tolerance
constexpr double kDrainedBytes = 1e-6;  // a flow this close to empty is done

double to_bps(double gbps) { return gbps * kGiga; }

}  // namespace

const char* fabric_level_name(FabricLevel level) {
  switch (level) {
    case FabricLevel::none:
      return "none";
    case FabricLevel::links:
      return "links";
  }
  return "?";
}

FabricLevel fabric_level_by_name(const std::string& name) {
  if (name == "none") return FabricLevel::none;
  if (name == "links") return FabricLevel::links;
  DPML_CHECK_MSG(false, "unknown fabric level '" + name +
                            "' (valid: none, links)");
  return FabricLevel::none;
}

FabricTopo FabricTopo::derive(const net::ClusterConfig& cfg, int nodes) {
  DPML_CHECK_MSG(nodes >= 1, "fabric needs at least one node");
  DPML_CHECK_MSG(cfg.nodes_per_leaf >= 1,
                 "cluster '" + cfg.name + "' declares nodes_per_leaf " +
                     std::to_string(cfg.nodes_per_leaf));
  DPML_CHECK_MSG(cfg.oversubscription >= 1.0,
                 "cluster '" + cfg.name +
                     "' declares an oversubscription factor below 1");
  DPML_CHECK_MSG(cfg.nic.link_bw > 0.0,
                 "cluster '" + cfg.name + "' has no link bandwidth");
  FabricTopo t;
  t.nodes = nodes;
  t.nodes_per_leaf = cfg.nodes_per_leaf;
  t.leaves = (nodes + cfg.nodes_per_leaf - 1) / cfg.nodes_per_leaf;
  t.node_link_gbps = cfg.nic.link_bw;
  // A fully-populated leaf offers nodes_per_leaf * link_bw of edge demand;
  // the core carries 1/oversubscription of it, built from ways no faster
  // than one edge link (5:4 oversubscription on a 24-node leaf = 20 core
  // links of edge speed, paper §6.1).
  const double leaf_core =
      cfg.nic.link_bw * cfg.nodes_per_leaf / cfg.oversubscription;
  t.ecmp_ways = std::max(
      1, static_cast<int>(std::ceil(leaf_core / cfg.nic.link_bw - 1e-9)));
  t.core_way_gbps = leaf_core / t.ecmp_ways;
  return t;
}

FlowFabric::FlowFabric(sim::Engine& engine, const net::ClusterConfig& cfg,
                       int nodes)
    : engine_(engine), topo_(FabricTopo::derive(cfg, nodes)) {
  links_.reserve(static_cast<std::size_t>(topo_.num_links()));
  for (int n = 0; n < topo_.nodes; ++n) {
    add_link("node" + std::to_string(n) + ".up", n, topo_.node_link_gbps);
  }
  for (int n = 0; n < topo_.nodes; ++n) {
    add_link("node" + std::to_string(n) + ".down", n, topo_.node_link_gbps);
  }
  for (int l = 0; l < topo_.leaves; ++l) {
    for (int w = 0; w < topo_.ecmp_ways; ++w) {
      add_link("leaf" + std::to_string(l) + ".up" + std::to_string(w), -1,
               topo_.core_way_gbps);
    }
  }
  for (int l = 0; l < topo_.leaves; ++l) {
    for (int w = 0; w < topo_.ecmp_ways; ++w) {
      add_link("leaf" + std::to_string(l) + ".down" + std::to_string(w), -1,
               topo_.core_way_gbps);
    }
  }
}

int FlowFabric::add_link(std::string name, int node, double gbps) {
  Link l;
  l.name = std::move(name);
  l.node = node;
  l.base_gbps = gbps;
  l.cap = to_bps(gbps);
  links_.push_back(std::move(l));
  return static_cast<int>(links_.size()) - 1;
}

int FlowFabric::uplink(int node) const {
  DPML_CHECK(node >= 0 && node < topo_.nodes);
  return node;
}

int FlowFabric::downlink(int node) const {
  DPML_CHECK(node >= 0 && node < topo_.nodes);
  return topo_.nodes + node;
}

int FlowFabric::leaf_uplink(int leaf, int way) const {
  DPML_CHECK(leaf >= 0 && leaf < topo_.leaves);
  DPML_CHECK(way >= 0 && way < topo_.ecmp_ways);
  return 2 * topo_.nodes + leaf * topo_.ecmp_ways + way;
}

int FlowFabric::leaf_downlink(int leaf, int way) const {
  return leaf_uplink(leaf, way) + topo_.leaves * topo_.ecmp_ways;
}

int FlowFabric::link_node(int id) const {
  return links_[static_cast<std::size_t>(id)].node;
}

const std::string& FlowFabric::link_name(int id) const {
  return links_[static_cast<std::size_t>(id)].name;
}

double FlowFabric::link_capacity_gbps(int id) const {
  return links_[static_cast<std::size_t>(id)].base_gbps;
}

int FlowFabric::ecmp_way(int src_node, int dst_node, int ways) {
  DPML_CHECK(ways >= 1);
  // SplitMix64-style finalizer over the (src, dst) pair: stateless, so the
  // same pair always hashes to the same core switch.
  std::uint64_t x =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node))
       << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_node));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<int>(x % static_cast<std::uint64_t>(ways));
}

int FlowFabric::choose_way(int src_node, int dst_node) const {
  const int ways = topo_.ecmp_ways;
  const int start = ecmp_way(src_node, dst_node, ways);
  if (down_links_ == 0) return start;  // bit-identical pristine fast path
  const int src_leaf = src_node / topo_.nodes_per_leaf;
  const int dst_leaf = dst_node / topo_.nodes_per_leaf;
  for (int k = 0; k < ways; ++k) {
    const int w = (start + k) % ways;
    if (!links_[static_cast<std::size_t>(leaf_uplink(src_leaf, w))].down &&
        !links_[static_cast<std::size_t>(leaf_downlink(dst_leaf, w))].down) {
      return w;
    }
  }
  DPML_CHECK_MSG(false, "no live ECMP way between leaf " +
                            std::to_string(src_leaf) + " and leaf " +
                            std::to_string(dst_leaf));
  return start;
}

void FlowFabric::set_way_down(int leaf, int way, bool down) {
  DPML_CHECK(way >= 0 && way < topo_.ecmp_ways);
  DPML_CHECK(leaf == kAllLeaves || (leaf >= 0 && leaf < topo_.leaves));
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
  // Reroute every live core-crossing flow from its stored endpoints.
  // Recomputing from scratch (rather than only moving flows off dead ways)
  // also rebalances flows back onto recovered ways, so recovery restores
  // the exact pristine routing.
  for (Flow& f : flows_) {
    if (f.nlinks != 4) continue;
    const int w = choose_way(f.src, f.dst);
    f.links[1] = leaf_uplink(f.src / topo_.nodes_per_leaf, w);
    f.links[2] = leaf_downlink(f.dst / topo_.nodes_per_leaf, w);
  }
  recompute(now);
  reschedule(now);
  if (failure_cb_) failure_cb_(leaf, way, down);
}

bool FlowFabric::way_down(int leaf, int way) const {
  return links_[static_cast<std::size_t>(leaf_uplink(leaf, way))].down;
}

void FlowFabric::enable_group_accounting(int num_groups) {
  DPML_CHECK(num_groups >= 1);
  group_bytes_.assign(static_cast<std::size_t>(num_groups),
                      std::vector<double>(links_.size(), 0.0));
}

void FlowFabric::set_node_group(int node, int group) {
  DPML_CHECK(node >= 0 && node < topo_.nodes);
  DPML_CHECK(group >= 0);
  if (node_group_.empty()) {
    node_group_.assign(static_cast<std::size_t>(topo_.nodes), 0);
  }
  node_group_[static_cast<std::size_t>(node)] = group;
}

int FlowFabric::node_group(int node) const {
  DPML_CHECK(node >= 0 && node < topo_.nodes);
  return node_group_.empty() ? 0 : node_group_[static_cast<std::size_t>(node)];
}

double FlowFabric::link_group_bytes(int link, int group) const {
  if (group < 0 || static_cast<std::size_t>(group) >= group_bytes_.size()) {
    return 0.0;
  }
  const auto& row = group_bytes_[static_cast<std::size_t>(group)];
  if (link < 0 || static_cast<std::size_t>(link) >= row.size()) return 0.0;
  return row[static_cast<std::size_t>(link)];
}

double FlowFabric::link_total_bytes(int link) const {
  double total = 0.0;
  for (const auto& row : group_bytes_) {
    if (link >= 0 && static_cast<std::size_t>(link) < row.size()) {
      total += row[static_cast<std::size_t>(link)];
    }
  }
  return total;
}

int FlowFabric::down_ways() const { return down_links_ / 2; }

FlowFabric::FlowId FlowFabric::start_flow(int src_node, int dst_node,
                                          std::uint64_t bytes,
                                          double rate_cap_gbps,
                                          Completion done, int group) {
  DPML_CHECK_MSG(src_node != dst_node, "fabric flows are inter-node");
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
                dst_node, group);
}

FlowFabric::FlowId FlowFabric::start_uplink_flow(int node, std::uint64_t bytes,
                                                 double rate_cap_gbps,
                                                 Completion done) {
  const int path[1] = {uplink(node)};
  return launch(path, 1, bytes, rate_cap_gbps, std::move(done), node, -1,
                kAutoGroup);
}

FlowFabric::FlowId FlowFabric::start_downlink_flow(int node,
                                                   std::uint64_t bytes,
                                                   double rate_cap_gbps,
                                                   Completion done) {
  const int path[1] = {downlink(node)};
  return launch(path, 1, bytes, rate_cap_gbps, std::move(done), node, -1,
                kAutoGroup);
}

FlowFabric::FlowId FlowFabric::launch(const int* links, int nlinks,
                                      std::uint64_t bytes,
                                      double rate_cap_gbps, Completion done,
                                      int src, int dst, int group) {
  DPML_CHECK(rate_cap_gbps > 0.0);
  const sim::Time now = engine_.now();
  const FlowId id = next_id_++;
  if (bytes == 0) {
    // Control-sized flows occupy no bandwidth; complete at the same instant
    // via a fresh event, preserving schedule-order determinism.
    engine_.schedule_call(now, [done = std::move(done), now]() { done(now); });
    return id;
  }
  advance(now);
  Flow f;
  f.id = id;
  for (int i = 0; i < nlinks; ++i) f.links[i] = links[i];
  f.nlinks = nlinks;
  f.src = src;
  f.dst = dst;
  f.group = (group == kAutoGroup) ? node_group(src) : group;
  f.remaining = static_cast<double>(bytes);
  f.cap = to_bps(rate_cap_gbps);
  f.done = std::move(done);
  flows_.push_back(std::move(f));
  recompute(now);
  reschedule(now);
  return id;
}

double FlowFabric::scaled_capacity(int link, sim::Time now) const {
  const Link& l = links_[static_cast<std::size_t>(link)];
  double scale = 1.0;
  if (capacity_scaler_) {
    scale = capacity_scaler_(link, now);
    // A perturbation may choke a link but never disconnect it: a zero or
    // negative scale would stall flows forever (no completion to reschedule
    // around), so clamp to a deeply degraded floor instead.
    scale = std::max(scale, 1e-6);
  }
  return to_bps(l.base_gbps) * scale;
}

void FlowFabric::advance(sim::Time now) {
  DPML_CHECK(now >= last_);
  const sim::Time dt = now - last_;
  if (dt == 0) return;
  const double dt_s = sim::to_seconds(dt);
  for (Flow& f : flows_) {
    const double drained = std::min(f.remaining, f.rate * dt_s);
    f.remaining -= drained;
    if (!group_bytes_.empty() &&
        static_cast<std::size_t>(f.group) < group_bytes_.size()) {
      auto& row = group_bytes_[static_cast<std::size_t>(f.group)];
      for (int i = 0; i < f.nlinks; ++i) {
        row[static_cast<std::size_t>(f.links[i])] += drained;
      }
    }
  }
  for (Link& l : links_) {
    if (l.cap > 0.0 && l.load > 0.0) {
      l.busy_integral += (l.load / l.cap) * static_cast<double>(dt);
    }
  }
  last_ = now;
}

void FlowFabric::recompute(sim::Time now) {
  ++perf_.recomputes;
  // Refresh scaled capacities and close/open congestion intervals against
  // the new flow set.
  const std::size_t nl = links_.size();
  for (Link& l : links_) {
    l.cap = scaled_capacity(static_cast<int>(&l - links_.data()), now);
    l.load = 0.0;
    l.nflows = 0;
  }
  for (Flow& f : flows_) {
    f.rate = -1.0;  // unfrozen
    for (int i = 0; i < f.nlinks; ++i) {
      ++links_[static_cast<std::size_t>(f.links[i])].nflows;
    }
  }
  // CSR rows: row_flows_[row_start_[l], row_start_[l + 1]) lists link l's
  // flows in id order, so each per-link re-sum below adds the frozen rates
  // in the order a pass over every flow would (same bits).
  row_start_.assign(nl + 1, 0);
  active_links_.clear();
  for (std::size_t l = 0; l < nl; ++l) {
    row_start_[l + 1] = row_start_[l] + links_[l].nflows;
    if (links_[l].nflows > 0) active_links_.push_back(static_cast<int>(l));
  }
  row_fill_.assign(row_start_.begin(), row_start_.end() - 1);
  row_flows_.resize(static_cast<std::size_t>(row_start_[nl]));
  unfrozen_.resize(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& f = flows_[i];
    for (int k = 0; k < f.nlinks; ++k) {
      row_flows_[static_cast<std::size_t>(
          row_fill_[static_cast<std::size_t>(f.links[k])]++)] =
          static_cast<int>(i);
    }
    unfrozen_[i] = static_cast<int>(i);
  }
  touched_mark_.resize(nl, 0);

  // Progressive filling: raise one shared water level across all unfrozen
  // flows; each round freezes every flow on a newly-saturated link (at the
  // link's fair share) or at its own rate cap, whichever binds first. A
  // round's freezes change only the links those flows cross, so only those
  // are re-summed; every other link's load and count carry over unchanged.
  while (!unfrozen_.empty()) {
    ++perf_.fill_rounds;
    double level = std::numeric_limits<double>::infinity();
    for (int li : active_links_) {
      const Link& l = links_[static_cast<std::size_t>(li)];
      level = std::min(level, (l.cap - l.load) / l.nflows);
    }
    for (int fi : unfrozen_) {
      level = std::min(level, flows_[static_cast<std::size_t>(fi)].cap);
    }
    DPML_CHECK(level >= 0.0 && std::isfinite(level));
    const double freeze_at = level * (1.0 + kRelEps) + 1.0;
    std::size_t kept = 0;
    for (int fi : unfrozen_) {
      Flow& f = flows_[static_cast<std::size_t>(fi)];
      bool frozen = f.cap <= freeze_at;
      for (int i = 0; i < f.nlinks && !frozen; ++i) {
        const Link& l = links_[static_cast<std::size_t>(f.links[i])];
        frozen = (l.cap - l.load) / l.nflows <= freeze_at;
      }
      if (!frozen) {
        unfrozen_[kept++] = fi;
        continue;
      }
      f.rate = std::min(level, f.cap);
      for (int i = 0; i < f.nlinks; ++i) {
        const auto li = static_cast<std::size_t>(f.links[i]);
        if (touched_mark_[li] == 0) {
          touched_mark_[li] = 1;
          touched_.push_back(f.links[i]);
        }
      }
    }
    unfrozen_.resize(kept);
    // Commit the frozen rates to the touched links.
    for (int li : touched_) {
      const auto l = static_cast<std::size_t>(li);
      touched_mark_[l] = 0;
      double load = 0.0;
      int nflows = 0;
      for (int k = row_start_[l]; k < row_start_[l + 1]; ++k) {
        const auto fi = row_flows_[static_cast<std::size_t>(k)];
        const Flow& f = flows_[static_cast<std::size_t>(fi)];
        if (f.rate >= 0.0) {
          load += f.rate;
        } else {
          ++nflows;
        }
      }
      links_[l].load = load;
      links_[l].nflows = nflows;
    }
    perf_.link_resums += touched_.size();
    touched_.clear();
    std::erase_if(active_links_, [this](int li) {
      return links_[static_cast<std::size_t>(li)].nflows == 0;
    });
  }

  // Final per-link flow counts (everything is frozen now; the filling loop
  // left nflows at zero).
  for (std::size_t l = 0; l < nl; ++l) {
    links_[l].nflows = row_start_[l + 1] - row_start_[l];
  }

  // Conservation invariant (always on, cheap): no link is allocated beyond
  // its capacity, and the instantaneous peak is recorded.
  for (Link& l : links_) {
    DPML_CHECK_MSG(l.load <= l.cap * (1.0 + 1e-6) + 1.0,
                   "fabric link '" + l.name + "' over-allocated");
    if (l.cap > 0.0) {
      peak_util_ = std::max(peak_util_, l.load / l.cap);
    }
    // Congestion bookkeeping: an interval is open while >= 2 flows share
    // the link.
    if (l.nflows >= 2 && l.cong_since < 0) {
      l.cong_since = now;
    } else if (l.nflows < 2 && l.cong_since >= 0) {
      l.cong_time += now - l.cong_since;
      if (congestion_cb_ && now > l.cong_since) {
        congestion_cb_(static_cast<int>(&l - links_.data()), l.cong_since,
                       now);
      }
      l.cong_since = -1;
    }
  }
}

void FlowFabric::reschedule(sim::Time now) {
  ++wake_gen_;  // the pending wake, if any, is now stale
  if (flows_.empty()) return;
  // Of one event per flow (seqs consecutive in id order), only the
  // earliest (eta, seq) could act before the next reschedule staled the
  // rest: post that one at its own seq and hold the clock at the latest.
  const std::uint64_t base = engine_.reserve_seqs(flows_.size());
  std::size_t first = 0;
  sim::Time first_eta = std::numeric_limits<sim::Time>::max();
  sim::Time last_eta = now;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& f = flows_[i];
    DPML_CHECK(f.rate > 0.0);
    const double eta_s = f.remaining / f.rate;
    const sim::Time eta =
        now + std::max<sim::Time>(
                  1, static_cast<sim::Time>(
                         std::ceil(eta_s * static_cast<double>(sim::kSecond))));
    if (eta < first_eta) {  // strict: ties go to the lowest id
      first_eta = eta;
      first = i;
    }
    last_eta = std::max(last_eta, eta);
  }
  engine_.hold_until(last_eta);
  wake_flow_ = first;
  ++perf_.wakes;
  engine_.schedule_call_at_seq(first_eta, base + first,
                               [this, gen = wake_gen_]() { on_wake(gen); });
}

void FlowFabric::on_wake(std::uint64_t gen) {
  if (gen != wake_gen_) {
    ++perf_.stale_wakes;
    return;
  }
  // Nothing changed flows_ since this wake was posted (every change
  // reschedules), so wake_flow_ still indexes its flow.
  const sim::Time now = engine_.now();
  advance(now);
  Flow& f = flows_[wake_flow_];
  if (f.remaining > kDrainedBytes) {
    // Rounding drift: the flow is not quite done — reschedule its tail.
    reschedule(now);
    return;
  }
  Completion done = std::move(f.done);
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(wake_flow_));
  recompute(now);
  reschedule(now);
  // Invoked last: the callback may start new flows, which re-enter the
  // allocator on consistent state.
  if (done) done(now);
}

void FlowFabric::set_capacity_scaler(
    std::function<double(int, sim::Time)> fn) {
  capacity_scaler_ = std::move(fn);
}

void FlowFabric::schedule_reallocations(const std::vector<sim::Time>& times) {
  for (sim::Time t : times) {
    engine_.schedule_call(t, [this]() {
      const sim::Time now = engine_.now();
      advance(now);
      recompute(now);
      reschedule(now);
    });
  }
}

void FlowFabric::set_congestion_listener(
    std::function<void(int, sim::Time, sim::Time)> fn) {
  congestion_cb_ = std::move(fn);
}

void FlowFabric::set_failure_listener(
    std::function<void(int, int, bool)> fn) {
  failure_cb_ = std::move(fn);
}

void FlowFabric::finish(sim::Time now) {
  advance(now);
  for (Link& l : links_) {
    if (l.cong_since >= 0) {
      l.cong_time += now - l.cong_since;
      if (congestion_cb_ && now > l.cong_since) {
        congestion_cb_(static_cast<int>(&l - links_.data()), l.cong_since,
                       now);
      }
      l.cong_since = -1;
    }
  }
}

double FlowFabric::flow_rate_gbps(FlowId id) const {
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const Flow& f, FlowId v) { return f.id < v; });
  DPML_CHECK_MSG(it != flows_.end() && it->id == id,
                 "querying a completed fabric flow");
  return it->rate / kGiga;
}

double FlowFabric::link_avg_utilization(int id, sim::Time now) const {
  if (now <= 0) return 0.0;
  const Link& l = links_[static_cast<std::size_t>(id)];
  double busy = l.busy_integral;
  if (now > last_ && l.cap > 0.0) {
    busy += (l.load / l.cap) * static_cast<double>(now - last_);
  }
  return busy / static_cast<double>(now);
}

double FlowFabric::max_avg_link_utilization(sim::Time now) const {
  double m = 0.0;
  for (int i = 0; i < num_links(); ++i) {
    m = std::max(m, link_avg_utilization(i, now));
  }
  return m;
}

sim::Time FlowFabric::link_congested_time(int id, sim::Time now) const {
  const Link& l = links_[static_cast<std::size_t>(id)];
  sim::Time t = l.cong_time;
  if (l.cong_since >= 0 && now > l.cong_since) t += now - l.cong_since;
  return t;
}

}  // namespace dpml::fabric
