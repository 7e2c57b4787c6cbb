// Latency measurement harness (OSU-style, barrier-separated iterations).
//
// Builds a Machine for the requested (cluster, nodes, ppn), runs warmup +
// measured iterations of one collective spec on every rank, and reports the
// per-iteration simulated latency. In data mode the buffers follow the
// kind's contract (coll/kind.hpp), each rank's input one deterministic
// operand over its input extent, and MeasureResult::verified compares every
// result-holding rank's recv bit-for-bit with check::reference_mismatch,
// the serial reference the checker uses too: the ascending comm-rank fold
// for allreduce, reduce and reduce_scatter, the root's input for bcast and
// scatter, the inputs in rank order for allgather and gather, and the
// transposed blocks for alltoall (barrier has nothing to verify).
// PerfReport folds the host-side counters of many points into the one
// report dpmlsim and the benches print.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "core/api.hpp"
#include "fabric/fabric.hpp"
#include "net/cluster.hpp"
#include "perturb/spec.hpp"
#include "sim/dataplane.hpp"
#include "sim/engine.hpp"
#include "simmpi/message.hpp"

namespace dpml::core {

struct MeasureOptions {
  int iterations = 5;
  int warmup = 2;
  // Independent repetitions: each builds a fresh Machine whose perturbation
  // seed is perturb.seed + rep, so distributions over noise realizations can
  // be reported (min/median/p99). With repetitions == 1, rep 0 uses
  // perturb.seed itself and results equal a single run.
  int repetitions = 1;
  bool with_data = false;  // metadata-only by default: scales to 10k ranks
  std::uint64_t seed = 1;
  // Machine perturbations for every repetition (empty => pristine machines
  // on the exact unperturbed code path).
  perturb::PerturbSpec perturb;
  simmpi::Dtype dt = simmpi::Dtype::f32;   // paper: MPI_FLOAT
  simmpi::ReduceOp op = simmpi::ReduceOp::sum;  // paper: MPI_SUM
  int root = 0;  // rooted kinds (reduce/bcast/gather/scatter) only
  // MPI-semantics verification for every repetition's machine (simcheck).
  // A checked run's simulated times are identical to an unchecked one.
  check::CheckLevel check = check::CheckLevel::off;
  // Flow-level fabric fidelity for every repetition's machine. The default
  // `none` keeps the classic LogGP transport (bit-identical results);
  // `links` enforces per-link capacities with max-min fair sharing.
  fabric::FabricLevel fabric = fabric::FabricLevel::none;
  // Host threads for the repetition sweep (0 resolves to
  // core::default_jobs(), i.e. dpmlsim/bench --jobs or DPML_JOBS). Every
  // repetition is an independent Machine with an explicitly derived seed
  // (perturb.seed + rep) committed into its own result slot, so any jobs
  // value produces byte-identical MeasureResults (see docs/MODEL.md §8).
  int jobs = 0;
  // Ignored (see sim::DataMode): metadata-only runs are the payload-free
  // mode.
  sim::DataMode data_mode = sim::DataMode::payload;
  // Ignored (see sim::SchedulerKind): one event queue serves every run.
  sim::SchedulerKind scheduler = sim::SchedulerKind::automatic;
};

// The verification and data-plane counters of a point that ran with payload
// or a checker (docs/CHECKING.md "Result verification"): the checker's
// snapshots and every serial-reference run, the checker's and
// measure_collective's own, and the payload bytes sim::PayloadPlane copied.
struct CheckCounters {
  check::VerifyStats verify;
  std::uint64_t copied_bytes = 0;

  void merge(const CheckCounters& o) {
    verify.merge(o.verify);
    copied_bytes += o.copied_bytes;
  }
  bool operator==(const CheckCounters&) const = default;
};

// Host-side performance counters for one measure_collective call, aggregated
// over all repetitions. Every field except the wall-clock-derived ones
// (wall_ms, events_per_sec, wall_ms_per_sim_ms, jobs) is a deterministic
// function of the simulation and stays identical across jobs counts.
struct MeasurePerf {
  std::uint64_t events = 0;            // engine events, summed over reps
  std::uint64_t resumes = 0;           // ... coroutine resumes (sum)
  std::uint64_t callbacks = 0;         // ... pooled callbacks (sum)
  std::uint64_t instants = 0;          // event-queue runs opened (sum)
  std::uint64_t peak_instants = 0;     // most runs queued at once (max)
  std::uint64_t peak_queue_depth = 0;  // queued-event high-water mark (max)
  std::uint64_t elided_bytes = 0;      // payload bytes elided (metadata-only)
  double callback_pool_hit_rate = 0.0; // pooled event records served warm
  double payload_pool_hit_rate = 0.0;  // recycled message payload buffers
  sim::PoolStats frame_pool;           // coroutine frames (merged over reps)
  simmpi::MatchStats match;            // matcher work (sums; depth maxima)
  std::optional<CheckCounters> check;  // data or checked points (sums)
  double sim_ms = 0.0;                 // simulated time, summed over reps
  // Host wall clock for the whole repetition sweep (not deterministic).
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double wall_ms_per_sim_ms = 0.0;
  int jobs = 1;                        // resolved worker count used
};

struct MeasureResult {
  double avg_us = 0.0;
  double best_us = 0.0;
  double worst_us = 0.0;
  double median_us = 0.0;      // over all iterations of all repetitions
  double p99_us = 0.0;
  bool verified = true;        // always true in metadata-only runs
  std::uint64_t events = 0;    // engine events processed (sanity/diagnostics)
  // Collective-entry imbalance aggregated over every repetition's machine
  // (all zero on pristine, untraced runs; see simmpi::ImbalanceStats).
  std::uint64_t imbalance_ops = 0;
  double entry_skew_avg_us = 0.0;  // mean per-op (max - min) entry skew
  double exit_skew_avg_us = 0.0;   // mean per-op (max - min) exit skew
  double wait_avg_us = 0.0;        // mean per-op summed early-arriver wait
  // Fabric run metadata (fabric == links only): the cluster's declared
  // oversubscription and the busiest link's time-averaged utilization
  // (worst repetition).
  bool fabric_links = false;
  double oversubscription = 1.0;
  double max_link_util = 0.0;
  std::uint64_t fabric_flows = 0;  // flows launched, summed over reps
  fabric::FabricPerf fabric_perf;  // allocator work, summed over reps
  // Host-side performance counters (dpmlsim --perf, bench summaries).
  MeasurePerf perf;
};

// Measure any registered collective. `bytes` is the message size per rank;
// for alltoall it is the per-destination block size (each rank moves
// world_size * bytes in total).
MeasureResult measure_collective(CollKind kind, const net::ClusterConfig& cfg,
                                 int nodes, int ppn, std::size_t bytes,
                                 const coll::CollSpec& spec,
                                 const MeasureOptions& opt = {});

// The link-fabric counters of one point that ran on the link fabric.
struct FabricCounters {
  double max_link_util = 0.0;  // busiest link, time-averaged
  std::uint64_t flows = 0;     // fabric flows launched
  std::uint64_t bg_flows = 0;  // ... of which background (tenant runs)
  fabric::FabricPerf perf;     // allocator work
};

// The host-cost report of a sweep: the one `[perf]` line and the one
// --perf-json snapshot of dpmlsim and every bench (docs/MODEL.md §8).
// Folding sums the counters, takes the maxima of the peaks and of
// max_link_util, and averages the pool hit rates over the points; the
// fabric block is present once a point on the link fabric is folded, and
// the matcher block once a measure_collective point matched a message, and
// the check block once a measure_collective point ran with payload or a
// checker (app and tenant points fold engine counters only).
// Everything but wall_ms and the process's peak RSS is deterministic for a
// fixed fold order.
struct PerfReport {
  int points = 0;                      // points folded
  std::uint64_t events = 0;            // engine events (sum)
  std::uint64_t resumes = 0;           // ... coroutine resumes (sum)
  std::uint64_t callbacks = 0;         // ... pooled callbacks (sum)
  std::uint64_t instants = 0;          // event-queue runs opened (sum)
  std::uint64_t peak_instants = 0;     // most runs queued at once (max)
  std::uint64_t peak_queue_depth = 0;  // queued-event high-water mark (max)
  std::uint64_t elided_bytes = 0;      // payload bytes elided (sum)
  double callback_pool_hits = 0.0;     // per-point hit rates (sum)
  double payload_pool_hits = 0.0;
  double frame_pool_hits = 0.0;
  std::uint64_t frame_pool_hit_count = 0;  // frames served warm (sum)
  std::uint64_t frame_pool_misses = 0;     // frames not served warm (sum)
  simmpi::MatchStats match;            // matcher work (sums; depth maxima)
  std::optional<CheckCounters> check;  // verification work (sums)
  std::optional<FabricCounters> fabric;
  double wall_ms = 0.0;  // host wall clock of the sweep (time_sweep)

  // Fold one measure_collective point.
  void add(const MeasureResult& r);
  // Fold one point run on engines of its own (an app kernel's run, a
  // tenant mix): their counters, the payload bytes they elided and, on the
  // link fabric, the fabric counters.
  void add(const sim::EnginePerf& engine, std::uint64_t elided_bytes,
           const std::optional<FabricCounters>& fabric = std::nullopt);
  // Fold every point of another report (the benches keep one per point and
  // fold them in point order).
  void add(const PerfReport& other);

  // Runs the sweep and records its wall clock as wall_ms, so at --jobs > 1
  // events/sec is the sweep's aggregate rate.
  void time_sweep(const std::function<void()>& sweep);

  // `[perf] N points, jobs=J, wall W ms, ...`, one line without a newline;
  // data or checked points add a `check:` clause, and on fabric runs it
  // ends with the fabric-allocator clause.
  std::string line() const;
  // The --perf-json snapshot that scripts/perf_delta.py diffs against
  // BENCH_perf.json: "tool", then `tags` (member name, JSON value) in
  // order, then the counters.
  std::string json(const std::string& tool,
                   const std::vector<std::pair<std::string, std::string>>&
                       tags = {}) const;
};

}  // namespace dpml::core
