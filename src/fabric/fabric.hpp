// Flow-level congested-fabric model with max-min fair link sharing.
//
// The LogGP transport in simmpi charges per-hop latency and per-resource
// FIFO occupancy, which models endpoint serialization well but treats the
// switched fabric as contention-free wires (src/net/topology.hpp). This
// subsystem adds the missing piece for the paper's §6.1 clusters: every
// in-flight inter-node message becomes a *flow* routed over explicit links
//
//   node --(uplink)--> leaf --(ECMP'd core uplink)--> core
//        --(core downlink)--> leaf --(downlink)--> node
//
// and a progressive-filling max-min fair allocator divides each link's
// capacity among the flows crossing it. Link capacities derive from the
// ClusterConfig: node edge links run at nic.link_bw, and each leaf's core
// uplink/downlink pool carries nodes_per_leaf * link_bw / oversubscription,
// split into ECMP "ways" — so the `oversubscription` factor declared by
// every preset is enforced, not documentation. Concurrent DPML leaders,
// SHArP tree legs and perturbation-degraded links genuinely contend.
//
// Rates are recomputed on every flow arrival and departure (and at
// perturbation rule boundaries). Each filling round re-sums only the links
// its freezes touch: a per-recompute CSR table lists every link's flows in
// id order, so each per-link sum adds in the same order a full pass would.
//
// Completions: after every change the fabric computes each live flow's
// ETA but posts a single wake, for the earliest (eta, id). A per-flow
// event batch would make every older batch stale, so only the earliest
// event of the latest batch could ever act; the one wake takes exactly
// that event's (t, seq) place, using a block of seqs reserved from the
// engine (Engine::reserve_seqs). The engine has no cancellation, so a
// fabric-wide wake generation marks superseded wakes stale, and the
// latest ETA is held on the engine clock (Engine::hold_until) so runs end
// at the same instant as with per-flow events. Everything iterates in
// flow-id or link-id order, so runs are bitwise reproducible.
//
// Opt-in: a Machine builds a FlowFabric only when
// RunOptions::fabric_level == FabricLevel::links; the default `none` leaves
// every transport path bit-identical to the pre-fabric code (locked by the
// golden tests).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace dpml::fabric {

// Fabric fidelity. `none` is the classic LogGP path; `links` routes every
// inter-node payload through the flow-level link model.
enum class FabricLevel { none, links };

const char* fabric_level_name(FabricLevel level);
FabricLevel fabric_level_by_name(const std::string& name);

// Link counts and capacities derived from a cluster preset — the enforced
// meaning of `nodes_per_leaf` and `oversubscription`.
struct FabricTopo {
  int nodes = 1;
  int nodes_per_leaf = 1;
  int leaves = 1;
  // Each leaf's aggregate core bandwidth (nodes_per_leaf * link_bw /
  // oversubscription) is carved into equal-capacity ECMP ways of at most
  // one node-link each, matching how a fat tree builds its core out of the
  // same link technology as the edge.
  int ecmp_ways = 1;
  double node_link_gbps = 0.0;  // node<->leaf edge links
  double core_way_gbps = 0.0;   // one leaf<->core ECMP way

  double leaf_core_gbps() const { return core_way_gbps * ecmp_ways; }
  int num_links() const { return 2 * nodes + 2 * leaves * ecmp_ways; }

  // Validates the config's fabric fields (nodes_per_leaf >= 1,
  // oversubscription >= 1, positive bandwidths) and derives the link plan
  // for the first `nodes` nodes.
  static FabricTopo derive(const net::ClusterConfig& cfg, int nodes);
};

// Deterministic allocator work counters: pure functions of the simulated
// inputs, identical across reruns and --jobs widths, and never read by the
// model (dpmlsim --perf / --perf-json print them on fabric runs).
struct FabricPerf {
  std::uint64_t recomputes = 0;   // max-min allocations
  std::uint64_t fill_rounds = 0;  // progressive-filling rounds across them
  std::uint64_t link_resums = 0;  // per-link load re-sums after freezes
  std::uint64_t wakes = 0;        // completion wakes posted
  std::uint64_t stale_wakes = 0;  // wakes superseded before they fired

  void merge(const FabricPerf& o) {
    recomputes += o.recomputes;
    fill_rounds += o.fill_rounds;
    link_resums += o.link_resums;
    wakes += o.wakes;
    stale_wakes += o.stale_wakes;
  }
  bool operator==(const FabricPerf&) const = default;
};

class FlowFabric {
 public:
  using FlowId = std::uint64_t;
  // Called (from an engine event at the completion instant) when a flow's
  // last byte has drained from the fabric.
  using Completion = std::function<void(sim::Time)>;

  FlowFabric(sim::Engine& engine, const net::ClusterConfig& cfg, int nodes);

  const FabricTopo& topo() const { return topo_; }
  int num_links() const { return static_cast<int>(links_.size()); }

  // ---- Link ids (dense, stable layout) ----
  // [0, nodes): node->leaf uplinks; [nodes, 2*nodes): leaf->node downlinks;
  // then per-leaf core uplink ways, then per-leaf core downlink ways.
  int uplink(int node) const;
  int downlink(int node) const;
  int leaf_uplink(int leaf, int way) const;
  int leaf_downlink(int leaf, int way) const;
  // Node owning an edge link, or -1 for core links (used to map node-scoped
  // perturbation rules onto link capacities).
  int link_node(int id) const;
  const std::string& link_name(int id) const;
  double link_capacity_gbps(int id) const;

  // Deterministic ECMP: the core way a (src, dst) flow hashes to. The same
  // way indexes the source leaf's uplink and the destination leaf's
  // downlink (both attach to the same core switch).
  static int ecmp_way(int src_node, int dst_node, int ways);
  // ECMP with failures: starts at ecmp_way and linearly probes to the first
  // way whose source-leaf uplink and destination-leaf downlink are both
  // live. Equals ecmp_way when nothing is down (bit-identical fast path).
  int choose_way(int src_node, int dst_node) const;

  // ---- Failure and recovery (multi-tenant fabric) ----
  // Mark one leaf's ECMP way — or, with leaf == kAllLeaves, core switch
  // `way` across every leaf — down or back up. Takes effect immediately:
  // live core-crossing flows are deterministically rerouted onto surviving
  // ways (and rebalanced back on recovery) and re-timed through a fresh
  // completion wake. Edge (node<->leaf) links never fail in this model.
  static constexpr int kAllLeaves = -1;
  void set_way_down(int leaf, int way, bool down);
  bool way_down(int leaf, int way) const;
  // Failure listener: called from inside set_way_down (after the flip and
  // deterministic reroute) with the event's (leaf, way, down). The adaptive
  // re-planner uses it to mark tenant plans stale mid-run (docs/MODEL.md §12).
  void set_failure_listener(std::function<void(int leaf, int way, bool down)> fn);
  // ECMP ways currently down across all leaves (uplink+downlink pairs).
  int down_ways() const;

  // ---- Tenant attribution ----
  // Flows carry a group id (a tenant job, or the background-traffic class);
  // when accounting is enabled, delivered bytes are attributed per
  // (link, group). kAutoGroup resolves to the source node's group (set via
  // set_node_group; default group 0), so existing call sites attribute
  // correctly without changes.
  static constexpr int kAutoGroup = -1;
  void enable_group_accounting(int num_groups);
  void set_node_group(int node, int group);
  int node_group(int node) const;
  // Bytes delivered over `link` on behalf of `group` (0 when accounting is
  // off or the pair is out of range).
  double link_group_bytes(int link, int group) const;
  // Bytes delivered over `link` across every group (0 when accounting off).
  double link_total_bytes(int link) const;

  // ---- Flows ----
  // Start a flow of `bytes` from src_node to dst_node, rate-capped at
  // `rate_cap_gbps` (the sender-side bottleneck, e.g. nic.link_bw times any
  // pairwise perturbation scale). Must be called at the engine's current
  // time. Zero-byte flows complete immediately (same instant, later event).
  FlowId start_flow(int src_node, int dst_node, std::uint64_t bytes,
                    double rate_cap_gbps, Completion done,
                    int group = kAutoGroup);
  // Single-leg flows for in-network aggregation traffic: node->leaf only
  // (SHArP upload) and leaf->node only (SHArP multicast download).
  FlowId start_uplink_flow(int node, std::uint64_t bytes, double rate_cap_gbps,
                           Completion done);
  FlowId start_downlink_flow(int node, std::uint64_t bytes,
                             double rate_cap_gbps, Completion done);

  // ---- Perturbation hookup ----
  // Per-link capacity scale evaluated at every rate recompute (time-windowed
  // link-degradation rules become per-link capacity scaling).
  void set_capacity_scaler(std::function<double(int link, sim::Time)> fn);
  // Schedule extra reallocation points (rule from/until boundaries), so a
  // window opening or closing mid-flow re-divides bandwidth immediately.
  void schedule_reallocations(const std::vector<sim::Time>& times);

  // ---- Observation ----
  // Congestion listener: called with [start, end) intervals during which a
  // link carried two or more concurrent flows (trace lanes).
  void set_congestion_listener(
      std::function<void(int link, sim::Time, sim::Time)> fn);
  // Flush utilization integrals and close open congestion intervals at the
  // end of a run.
  void finish(sim::Time now);

  int active_flows() const { return static_cast<int>(flows_.size()); }
  std::uint64_t total_flows() const { return next_id_; }
  // Current fair-share rate of a live flow (tests).
  double flow_rate_gbps(FlowId id) const;
  // Worst instantaneous utilization any link ever reached (<= 1 + epsilon:
  // the allocator's conservation invariant).
  double peak_link_utilization() const { return peak_util_; }
  // Time-averaged utilization of one link / the busiest link over [0, now].
  double link_avg_utilization(int id, sim::Time now) const;
  double max_avg_link_utilization(sim::Time now) const;
  // Total time `link` spent congested (>= 2 concurrent flows).
  sim::Time link_congested_time(int id, sim::Time now) const;
  const FabricPerf& perf() const { return perf_; }

 private:
  struct Link {
    std::string name;
    int node = -1;           // owning node for edge links, -1 for core
    double base_gbps = 0.0;  // configured capacity
    double cap = 0.0;        // scaled capacity, bytes/s (last recompute)
    double load = 0.0;       // sum of flow rates, bytes/s (last recompute)
    int nflows = 0;
    double busy_integral = 0.0;   // sum of utilization * dt (picoseconds)
    sim::Time cong_since = -1;    // open congestion interval, -1 when none
    sim::Time cong_time = 0;      // closed congested picoseconds
    bool down = false;            // failed ECMP way (carries no flows)
  };

  struct Flow {
    FlowId id = 0;
    int links[4] = {0, 0, 0, 0};
    int nlinks = 0;
    int src = -1;            // endpoints, kept for failure rerouting
    int dst = -1;
    int group = 0;           // tenant attribution class
    double remaining = 0.0;  // bytes left on the wire
    double rate = 0.0;       // bytes/s
    double cap = 0.0;        // bytes/s rate ceiling
    Completion done;
  };

  int add_link(std::string name, int node, double gbps);
  FlowId launch(const int* links, int nlinks, std::uint64_t bytes,
                double rate_cap_gbps, Completion done, int src, int dst,
                int group);
  // Drain bytes and accumulate link statistics over [last_, now].
  void advance(sim::Time now);
  // Progressive-filling max-min fair allocation over the live flows.
  void recompute(sim::Time now);
  // Supersede the pending wake and post one for the earliest completion.
  void reschedule(sim::Time now);
  void on_wake(std::uint64_t gen);
  double scaled_capacity(int link, sim::Time now) const;

  sim::Engine& engine_;
  FabricTopo topo_;
  std::vector<Link> links_;
  // Live flows in ascending id order (ids are issued monotonically, so a
  // launch appends): deterministic allocation order.
  std::vector<Flow> flows_;
  FlowId next_id_ = 0;
  std::uint64_t wake_gen_ = 0;   // generation of the one live wake
  std::size_t wake_flow_ = 0;    // index of the flow that wake completes
  FabricPerf perf_;
  // Progressive-filling scratch, reused across recomputes: CSR rows of
  // each link's flow indices in id order, the links still carrying
  // unfrozen flows, the unfrozen flows, and the links a round's freezes
  // touched (deduplicated through touched_mark_).
  std::vector<int> row_start_;
  std::vector<int> row_fill_;
  std::vector<int> row_flows_;
  std::vector<int> active_links_;
  std::vector<int> unfrozen_;
  std::vector<int> touched_;
  std::vector<char> touched_mark_;
  sim::Time last_ = 0;  // time up to which advance() has accounted
  double peak_util_ = 0.0;
  int down_links_ = 0;  // live count of down links (choose_way fast path)
  std::vector<int> node_group_;                  // empty => every node group 0
  std::vector<std::vector<double>> group_bytes_; // [group][link] delivered
  std::function<double(int, sim::Time)> capacity_scaler_;
  std::function<void(int, sim::Time, sim::Time)> congestion_cb_;
  std::function<void(int, int, bool)> failure_cb_;
};

}  // namespace dpml::fabric
