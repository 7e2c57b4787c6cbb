#include "mc/explore.hpp"

#include <chrono>
#include <cstring>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "coll/coll.hpp"
#include "coll/registry.hpp"
#include "core/api.hpp"
#include "mc/affine.hpp"
#include "mc/probes.hpp"
#include "net/cluster.hpp"
#include "sharp/sharp.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/verify.hpp"
#include "util/error.hpp"

namespace dpml::mc {

namespace {

using coll::CollKind;

// Wildcard channels seen across the exploration: (world rank, ctx).
using WildSet = std::set<std::pair<int, int>>;

// The oracle explore()/run_schedule() drive: replays a choice prefix
// (canonical-0 beyond it), records every choice point, and answers the
// independence relation from the frozen wildcard set. In collect mode it
// gathers wildcard channels instead (canonical pre-pass; no pop branching,
// so the frozen set is complete before any branch executes).
class RecordingOracle final : public sim::ScheduleOracle {
 public:
  struct Rec {
    std::size_t nalts = 0;
    std::size_t chosen = 0;
  };

  RecordingOracle(const std::vector<int>& prefix, WildSet* wild, bool collect)
      : prefix_(prefix), wild_(wild), collect_(collect) {}

  std::size_t choose(sim::ChoiceKind,
                     const std::vector<sim::ChoiceAlt>& alts) override {
    std::size_t pick = 0;
    if (depth_ < prefix_.size()) {
      const int want = prefix_[depth_];
      DPML_CHECK_MSG(
          want >= 0 && static_cast<std::size_t>(want) < alts.size(),
          "mc schedule diverged: choice point " + std::to_string(depth_) +
              " asks for alternative " + std::to_string(want) + " of " +
              std::to_string(alts.size()) +
              " (trace does not match this build/configuration)");
      pick = static_cast<std::size_t>(want);
    }
    recs_.push_back({alts.size(), pick});
    ++depth_;
    return pick;
  }

  void note_wildcard_recv(int rank, int ctx) override {
    if (collect_) wild_->insert({rank, ctx});
  }

  bool race_matters(int rank, int ctx) override {
    return !collect_ && wild_->count({rank, ctx}) != 0;
  }

  void note_pruned(std::uint64_t n) override { pruned_ += n; }

  const std::vector<Rec>& recs() const { return recs_; }
  std::uint64_t pruned() const { return pruned_; }

 private:
  const std::vector<int>& prefix_;
  WildSet* wild_;
  bool collect_;
  std::size_t depth_ = 0;
  std::vector<Rec> recs_;
  std::uint64_t pruned_ = 0;
};

// The per-rank coroutine: takes everything by value so no lambda capture
// has to live across a suspension point.
sim::CoTask<void> rank_main(coll::CollArgs a, CollKind kind,
                            coll::CollSpec spec) {
  co_await core::run_collective(kind, a, spec);
}

struct RunResult {
  std::vector<RecordingOracle::Rec> recs;
  std::uint64_t pruned = 0;
  std::string failure_type;  // "" | "check" | "deadlock" | "error"
  std::string failure_report;
  std::string deadlock_json;
};

// Execute one schedule of the configured collective under strict checking.
RunResult run_one(const McConfig& cfg, const std::vector<int>& prefix,
                  WildSet* wild, bool collect) {
  RunResult out;
  RecordingOracle oracle(prefix, wild, collect);

  net::ClusterConfig cluster = net::cluster_by_name(cfg.cluster);
  if (cluster.total_nodes < cfg.nodes) {
    cluster = net::with_nodes(cluster, cfg.nodes);
  }
  simmpi::RunOptions ropt;
  ropt.with_data = true;
  ropt.check_level = check::CheckLevel::strict;
  ropt.oracle = &oracle;

  try {
    simmpi::Machine m(cluster, cfg.nodes, cfg.ppn, ropt);
    const int world = m.world_size();
    DPML_CHECK_MSG(cfg.root >= 0 && cfg.root < world, "mc root out of range");
    coll::CollSpec spec;
    spec.algo = cfg.algo;
    spec.leaders = cfg.leaders;
    std::optional<sharp::SharpFabric> fabric;
    core::attach_fabric(m, cfg.kind, spec, fabric);

    // Buffers sized from the kind's contract (coll/kind.hpp), each rank's
    // input where the contract puts it: the reducing kinds carry the affine
    // non-commutative operands, the others the deterministic builtin
    // pattern. Barrier moves no data.
    const coll::KindContract contract = coll::contract_of(cfg.kind);
    const std::size_t count = cfg.kind == CollKind::barrier ? 0 : cfg.count;
    const std::size_t block = count * simmpi::dtype_size(cfg.dt);
    const auto uworld = static_cast<std::size_t>(world);
    std::vector<std::vector<std::byte>> sendb(uworld), recvb(uworld);
    for (int w = 0; w < world; ++w) {
      const bool at_root = w == cfg.root;
      auto& sb = sendb[static_cast<std::size_t>(w)];
      auto& rb = recvb[static_cast<std::size_t>(w)];
      sb.resize(coll::extent_blocks(contract.send, world, at_root) * block);
      rb.resize(coll::extent_blocks(contract.recv, world, at_root) * block);
      const std::size_t in =
          coll::input_blocks(cfg.kind, world, at_root) * count;
      if (in == 0) continue;
      (coll::input_in_recv(cfg.kind, false) ? rb : sb) =
          contract.reduces
              ? affine_operand(cfg.dt, in, w)
              : simmpi::make_operand(cfg.dt, in, w, simmpi::ReduceOp::sum, 1);
    }

    m.run([&](simmpi::Rank& r) {
      const auto w = static_cast<std::size_t>(r.world_rank());
      coll::CollArgs a;
      a.rank = &r;
      a.comm = &m.world();
      a.count = count;
      a.dt = cfg.dt;
      a.op = contract.reduces ? affine_op() : simmpi::Op(simmpi::ReduceOp::sum);
      a.root = cfg.root;
      a.send = sendb[w];
      a.recv = recvb[w];
      return rank_main(std::move(a), cfg.kind, spec);
    });
  } catch (const check::CheckError& e) {
    out.failure_type = e.deadlock_json().empty() ? "check" : "deadlock";
    out.failure_report = e.what();
    out.deadlock_json = e.deadlock_json();
  } catch (const util::DeadlockError& e) {
    // Only reachable without a checker; kept for robustness.
    out.failure_type = "deadlock";
    out.failure_report = e.what();
  }
  out.recs = oracle.recs();
  out.pruned = oracle.pruned();
  return out;
}

std::vector<int> executed_choices(const RunResult& r) {
  std::vector<int> choices;
  choices.reserve(r.recs.size());
  for (const auto& rec : r.recs) {
    choices.push_back(static_cast<int>(rec.chosen));
  }
  // Trailing canonical zeros are implicit: trimming them yields the minimal
  // divergence from the default schedule.
  while (!choices.empty() && choices.back() == 0) choices.pop_back();
  return choices;
}

Trace make_trace(const McConfig& cfg, std::vector<int> choices,
                 const WildSet& wild, const RunResult& r) {
  Trace t;
  t.config = cfg;
  t.choices = std::move(choices);
  t.wild.assign(wild.begin(), wild.end());
  t.failure_type = r.failure_type;
  t.failure_report = r.failure_report;
  t.deadlock_json = r.deadlock_json;
  return t;
}

}  // namespace

McOutcome explore(const McConfig& cfg, const McBudget& budget) {
  McOutcome out;
  WildSet wild;
  const auto t0 = std::chrono::steady_clock::now();  // dpmllint: allow(wall-clock)
  const auto expired = [&] {
    if (budget.max_millis == 0) return false;
    const auto dt = std::chrono::steady_clock::now() - t0;  // dpmllint: allow(wall-clock)
    return std::chrono::duration_cast<std::chrono::milliseconds>(dt).count() >=
           static_cast<long long>(budget.max_millis);
  };

  // Canonical pre-pass: collect (and freeze) the wildcard-channel set, so
  // every subsequent schedule sees identical choice points.
  const std::vector<int> empty;
  RunResult first = run_one(cfg, empty, &wild, /*collect=*/true);
  ++out.stats.schedules;
  out.stats.pruned += first.pruned;
  out.stats.choice_points += first.recs.size();
  if (!first.failure_type.empty()) {
    out.ok = false;
    out.counterexample = make_trace(cfg, {}, wild, first);
    return out;
  }

  std::vector<std::vector<int>> frontier;
  frontier.push_back({});
  while (!frontier.empty()) {
    if (out.stats.schedules >= budget.max_schedules || expired()) {
      out.stats.budget_exhausted = true;
      break;
    }
    const std::vector<int> prefix = std::move(frontier.back());
    frontier.pop_back();
    const RunResult r = run_one(cfg, prefix, &wild, /*collect=*/false);
    ++out.stats.schedules;
    out.stats.pruned += r.pruned;
    out.stats.choice_points += r.recs.size();
    if (!r.failure_type.empty()) {
      out.ok = false;
      out.counterexample = make_trace(cfg, executed_choices(r), wild, r);
      return out;
    }
    // Branch at every choice point this schedule reached beyond its prefix:
    // each unexplored alternative becomes a new prefix (sleep-set style —
    // alternatives before the prefix were enqueued by ancestor schedules
    // and are never re-expanded here).
    for (std::size_t d = prefix.size(); d < r.recs.size(); ++d) {
      for (std::size_t k = 1; k < r.recs[d].nalts; ++k) {
        std::vector<int> child;
        child.reserve(d + 1);
        for (std::size_t i = 0; i < d; ++i) {
          child.push_back(static_cast<int>(r.recs[i].chosen));
        }
        child.push_back(static_cast<int>(k));
        frontier.push_back(std::move(child));
        ++out.stats.branches;
      }
    }
    if (frontier.size() > out.stats.max_frontier) {
      out.stats.max_frontier = frontier.size();
    }
  }
  return out;
}

Trace run_schedule(const Trace& t) {
  ensure_probe_algorithms();
  WildSet wild(t.wild.begin(), t.wild.end());
  const RunResult r = run_one(t.config, t.choices, &wild, /*collect=*/false);
  Trace obs = make_trace(t.config, executed_choices(r), wild, r);
  return obs;
}

}  // namespace dpml::mc
