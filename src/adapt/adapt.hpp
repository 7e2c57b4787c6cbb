// Congestion-aware adaptive re-planning (docs/MODEL.md §12).
//
// PR 9's multi-tenant fabric measures what congestion does to a job —
// slowdown vs a solo baseline, barrier stall time, hot-link byte shares,
// failure events — but the selection layer still picked (algorithm,
// leader_count) from offline tables tuned on a pristine, solo cluster. This
// subsystem closes that loop: between collective iterations a job's observed
// signals are quantized to a discrete *contention level*, and an
// AdaptiveTable — the selection-table text format extended with a contention
// dimension — re-selects the job's (algorithm, leader_count) for the next
// iteration. Level 0 always reproduces the job's static plan (with the
// default table), so adaptive runs under zero background load and no
// failures stay bit-identical to static selection (golden-locked).
//
// The same table is the repository's one persistable selection table: its
// level-0 entries are the offline per-size choices the tuner writes
// (AdaptiveTable::tune, `dpmlsim tune`) and the table dispatcher runs
// (run_collective below, `dpmlsim latency --table`).
//
// Re-planning is pure bookkeeping over numbers the tenant layer hands in;
// no clocks, no RNG, no engine state — a deterministic function of the
// simulation, so adaptive runs remain byte-identical across reruns and
// sweep-executor widths.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "core/tuner.hpp"

namespace dpml::adapt {

// Discrete contention severity: 0 = pristine .. kLevels-1 = saturated.
constexpr int kLevels = 4;

// One observation window's feedback signals, as measured by the tenant
// layer between consecutive iteration barriers of one job.
struct Signals {
  // Foreign (other jobs + background) delivered bytes on the job's hottest
  // link, as a fraction of that link's capacity over the window.
  double foreign_util = 0.0;
  // Barrier stall time as a fraction of parties * window (arrival skew).
  double stall_frac = 0.0;
  // An ECMP way the job's flows may cross is down (failure observed).
  bool degraded = false;
};

// Quantize signals to a contention level. The stronger of foreign_util and
// stall_frac picks the base level (thresholds 0.05 / 0.25 / 0.55); an
// observed failure bumps the level by one (the degraded fabric has less
// core capacity than the utilization numbers alone suggest).
int classify(const Signals& s);

// A congestion-keyed selection table. Text format, one entry per line, '#'
// comments; bare lines (no KIND) are allreduce entries:
//
//   [KIND] [@cLEVEL] <=BYTES  ALGO [leaders] [pipeline_k]
//   [KIND] [@cLEVEL] *        ALGO [leaders] [pipeline_k]
//
// e.g.
//   <=2048           sharp-socket-leader   # level 0: the static choice
//   *                dpml 16 4
//   reduce *         dpml 8
//   @c1 *            cring 2               # mild contention: 2 channels
//   allreduce @c3 *  cring 8
//
// Lines without @c are level 0, so plain per-size selection tables (the
// tuner's output) are adaptive tables too (docs/MODEL.md §12); level-0-only
// tables serialize back without qualifiers. Per (kind, level): thresholds
// strictly ascending, catch-all required last.
class AdaptiveTable {
 public:
  struct Entry {
    coll::CollKind kind = coll::CollKind::allreduce;
    int level = 0;
    std::size_t max_bytes = 0;  // inclusive bound; SIZE_MAX = catch-all
    coll::CollSpec spec;
  };

  AdaptiveTable() = default;
  // Throws util::InvariantError naming the broken rule, the (kind, level)
  // and the entry's position when the entries break a whole-table rule.
  explicit AdaptiveTable(std::vector<Entry> entries);

  // The built-in ladder: no level-0 entries (the job's static plan stays in
  // charge when the fabric is quiet) and progressively more multi-channel
  // ring channels for congested allreduce jobs.
  static AdaptiveTable defaults();

  // Build a level-0 table by running the empirical tuner at each probe size
  // on the given shape. Threshold i covers (probe[i-1], probe[i]], the last
  // probe becomes the catch-all, and adjacent entries with identical specs
  // merge.
  static AdaptiveTable tune(coll::CollKind kind, const net::ClusterConfig& cfg,
                            int nodes, int ppn,
                            const std::vector<std::size_t>& probe_sizes,
                            const core::MeasureOptions& opt = {});

  // Parse / serialize the text format above. parse() throws
  // util::InvariantError on malformed input, unregistered algorithms or a
  // broken whole-table rule, naming the table line.
  static AdaptiveTable parse(const std::string& text);
  std::string serialize() const;

  // Entry for (kind, bytes) at the highest populated level <= level;
  // nullptr when no level down to 0 covers the kind.
  const Entry* select(coll::CollKind kind, std::size_t bytes, int level) const;
  // The level-0 spec for (kind, bytes), i.e. the static choice. Without a
  // fabric (has_fabric false) an allreduce SHArP entry resolves to dpml
  // with one leader, so tuned tables stay usable on fabric-less platforms.
  // Throws util::InvariantError naming the kind when no level-0 entry
  // covers it.
  coll::CollSpec level0(coll::CollKind kind, std::size_t bytes,
                        bool has_fabric = true) const;

  // Persist an observed choice: replace the catch-all spec for
  // (kind, level), appending the entry if absent. Recording the spec the
  // table itself selected is a no-op, so persisted tables are stable under
  // repeated runs.
  void record(coll::CollKind kind, int level, const coll::CollSpec& spec);

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

 private:
  // lines[i] is entry i's line in a parsed text; empty for tables built in
  // code, whose errors name the entry's position instead.
  AdaptiveTable(std::vector<Entry> entries, const std::vector<int>& lines);
  void validate(const std::vector<int>& lines) const;
  std::vector<Entry> entries_;
};

// Run a collective through a table's level-0 entries (resolved by kind,
// args.bytes() and whether `fabric` is attached, see level0). `fabric` is
// handed to specs that take one (core::takes_fabric).
sim::CoTask<void> run_collective(coll::CollKind kind, coll::CollArgs args,
                                 const AdaptiveTable& table,
                                 sharp::SharpFabric* fabric = nullptr);

// A job's (algorithm, leader_count) plan.
struct Plan {
  std::string algo;
  int leaders = 1;

  friend bool operator==(const Plan& a, const Plan& b) {
    return a.algo == b.algo && a.leaders == b.leaders;
  }
  friend bool operator!=(const Plan& a, const Plan& b) { return !(a == b); }
};

// Per-job re-planning state machine. The tenant layer feeds one Signals
// observation per iteration barrier; replan() returns the plan for the next
// iteration. Re-plan trigger rules (docs/MODEL.md §12): the plan changes
// only when the classified level changes or the plan was marked stale by a
// failure event; the new plan is the table's entry for the level (falling
// back level-by-level), or the static plan when no entry covers it.
class Replanner {
 public:
  Replanner(const AdaptiveTable* table, coll::CollKind kind, Plan static_plan,
            std::size_t bytes);

  const Plan& replan(const Signals& s);
  // A failure/recovery event invalidated the current plan; the next
  // replan() re-selects even at an unchanged level.
  void mark_stale() { stale_ = true; }

  const Plan& plan() const { return plan_; }
  int level() const { return level_; }
  int replans() const { return replans_; }
  int max_level() const { return max_level_; }

  // Persistence feed: whether a plan was chosen at `level` this run, and
  // the last plan chosen there (AdaptiveTable::record folds these back into
  // the table — including level 0, which migrates the static plan in).
  bool observed(int level) const;
  const Plan& observed_plan(int level) const;

 private:
  const AdaptiveTable* table_;  // not owned; may be nullptr (static only)
  coll::CollKind kind_;
  Plan static_plan_;
  std::size_t bytes_;
  Plan plan_;
  int level_ = 0;
  int replans_ = 0;
  int max_level_ = 0;
  bool stale_ = false;
  bool seen_[kLevels] = {};
  Plan observed_[kLevels];
};

}  // namespace dpml::adapt
