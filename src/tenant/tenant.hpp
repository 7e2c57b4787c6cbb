// Multi-tenant fabric simulation: N concurrent collective jobs sharing one
// FlowFabric (docs/MODEL.md §11).
//
// The paper's testbed runs one job at a time; a production cluster does
// not. This subsystem launches several collective jobs — each with its own
// rank set, collective kind/algorithm, payload size, and seeded start-time
// stagger — inside a single Machine, so the max-min fair allocator
// arbitrates genuine cross-job link contention (and, for SHArP jobs, the
// shared fabric's op-slot semaphore arbitrates in-network aggregation
// contention). A seeded traffic-matrix generator can add deterministic
// point-to-point background flows, and link/switch failure events can take
// ECMP ways down and back up mid-run, rerouting live flows.
//
// Per-job observability: goodput, slowdown vs. a solo run of the same job
// on the same (otherwise idle) machine, stall time from intra-job arrival
// skew, and per-link byte attribution via the fabric's group accounting.
//
// Determinism: every run is a pure function of (cluster, jobs, options).
// The shared run and the per-job solo baselines fan out over the sweep
// executor into pre-sized slots, so results are byte-identical for any
// --jobs count, and single-job runs with tenancy features off stay
// bit-identical to plain measure_collective runs (locked by golden tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adapt/adapt.hpp"
#include "coll/registry.hpp"
#include "core/measure.hpp"
#include "fabric/fabric.hpp"
#include "net/cluster.hpp"
#include "perturb/spec.hpp"
#include "sim/dataplane.hpp"
#include "sim/engine.hpp"

namespace dpml::tenant {

// Node-to-job placement policy. `block` gives each job a contiguous node
// range (PR 9's only policy — under which disjoint jobs share no links on
// these topologies); `round_robin` deals nodes to jobs in rounds, and
// `random` assigns a seeded shuffle, both of which interleave jobs within
// leaves so their cross-leaf traffic genuinely contends on shared links.
enum class Placement { block, round_robin, random };

const char* placement_name(Placement p);
// Throws util::InvariantError listing the valid names.
Placement placement_by_name(const std::string& name);

// Background traffic matrix: which (src, dst) pairs the generator draws.
enum class Matrix { none, uniform, permutation, hotspot };

const char* matrix_name(Matrix m);

// Seeded background point-to-point traffic. Each used node runs an
// open-loop arrival chain: every `bytes / (load * link_bw)` seconds (with a
// seeded per-gap jitter factor in [0.5, 1.5)) it injects one `bytes`-sized
// fabric flow toward a matrix-chosen destination. `load` is therefore the
// average fraction of each node's edge bandwidth the background consumes.
struct TrafficSpec {
  Matrix matrix = Matrix::none;
  double load = 0.2;            // fraction of per-node edge bandwidth
  std::size_t bytes = 65536;    // per-flow payload
  double hot_frac = 0.5;        // hotspot: probability of targeting hot_node
  int hot_node = 0;             // hotspot: the popular destination
  int shift = 0;                // permutation: dst = src + shift (0 = seeded)
  std::uint64_t seed = 1;

  bool empty() const { return matrix == Matrix::none; }
  std::string to_string() const;

  // Grammar: "<matrix>[:k=v,k=v,...]", e.g.
  // "uniform:load=0.3,bytes=64K,seed=9" or "hotspot:hot_frac=0.8,hot_node=0"
  // or "permutation:shift=3". Empty text = none.
  static TrafficSpec parse(const std::string& text);
};

// Scheduled ECMP-way failures. leaf == -1 fails core switch `way` across
// every leaf (a core-switch failure); otherwise one leaf's way (a cable
// failure). recover_us == 0 means the way never comes back.
struct FailSpec {
  struct Event {
    int way = 0;
    int leaf = -1;
    double at_us = 0.0;
    double recover_us = 0.0;
  };
  std::vector<Event> events;

  bool empty() const { return events.empty(); }
  std::string to_string() const;

  // Grammar: ';'-separated clauses "way=W[,leaf=L][,at_us=T][,recover_us=T]",
  // e.g. "way=0,at_us=30,recover_us=150;way=1,leaf=0,at_us=60".
  static FailSpec parse(const std::string& text);
  // The bare `--fail-links` default: core switch 0 fails at 30us and
  // recovers at 150us.
  static FailSpec default_spec();
};

// One tenant job: a collective looping `iterations` times over its own
// block of nodes. `algo` must work on sub-communicators (the world_only
// hierarchical designs are rejected up front); `sharp` routes the job
// through the shared SharpFabric instead of host algorithms.
struct JobSpec {
  std::string name;
  coll::CollKind kind = coll::CollKind::allreduce;
  std::string algo = "ring";
  int leaders = 1;
  int nodes = 2;
  std::size_t bytes = 65536;
  int iterations = 4;
  bool sharp = false;
};

// A deterministic default job mix: `count` jobs cycling through
// sub-communicator-safe kinds/algorithms, block-placed over
// `nodes_available` nodes; on SHArP-capable clusters the second job is a
// small-payload in-network allreduce so tree contention is exercised.
std::vector<JobSpec> default_jobs(int count, const net::ClusterConfig& cfg,
                                  int nodes_available);

struct TenantOptions {
  std::uint64_t seed = 1;
  double stagger_max_us = 20.0;    // seeded per-job start offset in [0, max)
  TrafficSpec traffic;             // background flows (shared run only)
  FailSpec failures;               // way failures (shared run only)
  fabric::FabricLevel fabric = fabric::FabricLevel::links;
  sim::DataMode data_mode = sim::DataMode::payload;  // ignored
  sim::SchedulerKind scheduler = sim::SchedulerKind::automatic;  // ignored
  perturb::PerturbSpec perturb;
  bool solo_baseline = true;       // run each job alone for slowdown
  int jobs = 0;                    // host threads (0 = core::default_jobs())
  std::string trace_json;          // Chrome trace of the shared run
  Placement placement = Placement::block;
  // Congestion-aware re-planning (docs/MODEL.md §12): between iterations
  // each non-SHArP job's observed signals re-select (algorithm, leaders)
  // through `table`. Applies to the shared run only — solo baselines stay
  // the static reference. Requires fabric == links.
  bool adapt = false;
  adapt::AdaptiveTable table = adapt::AdaptiveTable::defaults();
};

struct JobStats {
  std::string name;
  std::string kind;
  std::string algo;
  int nodes = 0;
  int ranks = 0;
  std::size_t bytes = 0;
  int iterations = 0;
  double start_us = 0.0;           // staggered start (shared run)
  double end_us = 0.0;             // last rank's completion
  double makespan_us = 0.0;        // end - start
  double goodput_gbps = 0.0;       // bytes * iterations / makespan
  double solo_us = 0.0;            // same job alone (0 when disabled)
  double slowdown = 0.0;           // makespan / solo (0 when disabled)
  double stall_us = 0.0;           // summed early-arriver wait at barriers
  double link_share = 0.0;         // fraction of hottest-link bytes
  // Adaptive re-planning outcome (static plan echoed when adapt is off).
  std::string final_algo;          // plan after the last re-plan point
  int final_leaders = 0;
  int replans = 0;                 // times the plan actually changed
  int max_level = 0;               // worst contention level classified
};

struct TenantResult {
  std::vector<JobStats> jobs;
  double makespan_us = 0.0;        // whole shared run
  std::uint64_t events = 0;        // engine events of the shared run
  sim::EnginePerf engine_perf;     // its engine counters (perf reports)
  std::uint64_t elided_bytes = 0;  // payload bytes it elided
  // The solo baselines' engine counters and elided bytes, folded (zero
  // without solo_baseline). The call simulates them too, so fold_perf adds
  // them to the shared run's.
  sim::EnginePerf baseline_perf;
  std::uint64_t baseline_elided_bytes = 0;
  double max_link_util = 0.0;      // busiest link, time-averaged
  double peak_link_util = 0.0;     // allocator conservation witness
  std::uint64_t flows = 0;         // fabric flows launched (shared run)
  std::uint64_t bg_flows = 0;      // of which background
  fabric::FabricPerf fabric_perf;  // allocator work (shared run)
  std::string hot_link;            // busiest link's name
  double hot_link_bg_share = 0.0;  // background's byte share on it
  // Links whose delivered bytes came from >= 2 distinct jobs (background
  // excluded) — the witness that a placement actually shares links.
  int shared_links = 0;
  // When adapt is on: the input table with every observed (kind, level)
  // choice recorded — the persisted feedback loop (dpmlsim --adapt-table).
  std::string adapt_table;
};

// Run the tenant mix. `ppn` applies to every job. Validates shapes up
// front (node budget, sub-communicator-safe algorithms, SHArP payload
// limits, background/failure features requiring fabric == links) and
// throws util::InvariantError on violations.
TenantResult run_tenants(const net::ClusterConfig& cfg, int ppn,
                         const std::vector<JobSpec>& jobs,
                         const TenantOptions& opt = {});

// Fold one run_tenants result (run with `opt`) into `report` as one point:
// the engine counters and elided bytes of the shared run and of the solo
// baselines, so events/sec divides every simulated event by the wall clock
// that timed them, and on the link fabric the shared run's fabric
// counters.
void fold_perf(const TenantResult& r, const TenantOptions& opt,
               core::PerfReport& report);

}  // namespace dpml::tenant
