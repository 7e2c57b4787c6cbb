// dpmlmc — exhaustive message-interleaving verification.
//
// Runs every registered algorithm × collective kind at small rank counts
// under the DPOR-style schedule explorer (src/mc/): each non-equivalent
// message-matching order executes under simcheck strict with a
// non-commutative affine reduction, so a schedule-sensitive bug (wrong fold
// order, wait-cycle deadlock) surfaces as a replayable counterexample trace
// for `dpmlsim --mc-replay`. See docs/CHECKING.md for the state-space
// model, independence relation, and budgets.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "mc/explore.hpp"
#include "mc/probes.hpp"
#include "net/cluster.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

namespace {

using dpml::coll::CollKind;
using dpml::coll::CollRegistry;

void usage() {
  std::printf(
      "dpmlmc — DPOR-style schedule exploration under simcheck strict\n"
      "\n"
      "usage: dpmlmc [options]\n"
      "  --np-min N      smallest rank count to explore (default 2)\n"
      "  --np-max N      largest rank count to explore (default 4)\n"
      "  --kind K        restrict to one collective kind\n"
      "  --algo A        restrict to one algorithm name\n"
      "  --count N       per-rank element count (default 16)\n"
      "  --dtype T       i32 or i64 (default i32)\n"
      "  --cluster NAME  cluster preset (default test)\n"
      "  --leaders N     CollSpec leaders (default 2)\n"
      "  --schedules N   per-config schedule budget (default 4096)\n"
      "  --ms N          per-config wall-clock budget, ms (default 10000)\n"
      "  --probe         include the mc-probe-* planted-bug algorithms\n"
      "                  (mc-probe-arrival MUST fail; finding its bug is the\n"
      "                  expected outcome)\n"
      "  --trace-dir D   where counterexample traces are written (default .)\n");
}

// Rank-count shapes that mix intra- and inter-node traffic where possible.
void shape_for(int np, int* nodes, int* ppn) {
  if (np % 2 == 0 && np >= 2) {
    *nodes = np / 2;
    *ppn = 2;
  } else {
    *nodes = np;
    *ppn = 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Flags are parsed inside the handler, so a bad value exits 1 with a
  // one-line error naming the flag.
  try {
    dpml::util::Args args(argc, argv);
    if (args.has("help")) {
      usage();
      return 0;
    }
    const int np_min = args.get_int("np-min", 2);
    const int np_max = args.get_int("np-max", 4);
    const std::string only_kind = args.get("kind", "");
    const std::string only_algo = args.get("algo", "");
    const std::string trace_dir = args.get_dir("trace-dir", ".");
    {
      std::error_code ec;
      std::filesystem::create_directories(trace_dir, ec);
      if (ec) {
        std::fprintf(stderr, "dpmlmc: cannot create --trace-dir '%s': %s\n",
                     trace_dir.c_str(), ec.message().c_str());
        return 2;
      }
    }
    const bool probe = args.get_bool("probe", false);

    dpml::mc::McConfig base;
    base.cluster = args.get("cluster", "test");
    base.count = args.get_int("count", 16);
    // The affine reduction the explorer checks with is defined for these two.
    const std::string dtype = args.get("dtype", "i32");
    if (dtype != "i32" && dtype != "i64") {
      throw dpml::util::InvariantError("bad value '" + dtype +
                                       "' for --dtype: expected i32 or i64");
    }
    base.dt = dtype == "i64" ? dpml::simmpi::Dtype::i64
                             : dpml::simmpi::Dtype::i32;
    base.leaders = args.get_int("leaders", 2);

    dpml::mc::McBudget budget;
    budget.max_schedules = args.get_int("schedules", 4096);
    budget.max_millis = args.get_int("ms", 10000);

    for (const std::string& key : args.unused()) {
      std::fprintf(stderr, "dpmlmc: unknown flag --%s (see --help)\n",
                   key.c_str());
      return 2;
    }

    dpml::coll::ensure_builtin_collectives();
    if (probe) dpml::mc::ensure_probe_algorithms();
    const dpml::net::ClusterConfig cluster =
        dpml::net::cluster_by_name(base.cluster);

    int failures = 0;
    int configs = 0;
    std::uint64_t total_schedules = 0;
    std::uint64_t total_pruned = 0;
    std::uint64_t total_branches = 0;
    bool probe_bug_found = false;

    for (int np = np_min; np <= np_max; ++np) {
      for (const CollKind kind : dpml::coll::kAllCollKinds) {
        if (!only_kind.empty() &&
            only_kind != dpml::coll::coll_kind_name(kind)) {
          continue;
        }
        for (const auto* d : CollRegistry::instance().list(kind)) {
          if (!only_algo.empty() && only_algo != d->name) continue;
          const bool is_probe = d->name.rfind("mc-probe-", 0) == 0;
          if (is_probe && !probe) continue;
          if (np < d->caps.min_comm_size) continue;
          if (d->caps.needs_fabric && !cluster.has_sharp()) continue;

          dpml::mc::McConfig cfg = base;
          cfg.kind = kind;
          cfg.algo = d->name;
          shape_for(np, &cfg.nodes, &cfg.ppn);
          cfg.root = dpml::coll::contract_of(kind).rooted && np > 1 ? 1 : 0;

          ++configs;
          const dpml::mc::McOutcome out = dpml::mc::explore(cfg, budget);
          total_schedules += out.stats.schedules;
          total_pruned += out.stats.pruned;
          total_branches += out.stats.branches;

          const bool expect_fail = d->name == "mc-probe-arrival";
          char stats_buf[160];
          std::snprintf(stats_buf, sizeof(stats_buf),
                        "%llu schedules, %llu choice-points, %.1f%% pruned, "
                        "frontier %llu%s",
                        static_cast<unsigned long long>(out.stats.schedules),
                        static_cast<unsigned long long>(
                            out.stats.choice_points),
                        out.stats.pruned_pct(),
                        static_cast<unsigned long long>(
                            out.stats.max_frontier),
                        out.stats.budget_exhausted ? ", budget hit" : "");
          if (out.ok) {
            if (expect_fail) {
              std::printf("[FAIL] %s: planted bug NOT detected (%s)\n",
                          cfg.label().c_str(), stats_buf);
              ++failures;
            } else {
              std::printf("[ ok ] %s: %s\n", cfg.label().c_str(), stats_buf);
            }
            continue;
          }
          const std::string path = trace_dir + "/mc-" +
                                   dpml::coll::coll_kind_name(kind) + "-" +
                                   d->name + "-np" + std::to_string(np) +
                                   ".json";
          dpml::mc::save_trace(*out.counterexample, path);
          if (expect_fail) {
            probe_bug_found = true;
            std::printf(
                "[ ok ] %s: planted bug detected (%s; %s counterexample, "
                "%zu choices) -> %s\n",
                cfg.label().c_str(), stats_buf,
                out.counterexample->failure_type.c_str(),
                out.counterexample->choices.size(), path.c_str());
          } else {
            std::printf("[FAIL] %s: %s counterexample after %s -> %s\n",
                        cfg.label().c_str(),
                        out.counterexample->failure_type.c_str(), stats_buf,
                        path.c_str());
            ++failures;
          }
        }
      }
    }

    const double pct =
        total_pruned + total_branches > 0
            ? 100.0 * static_cast<double>(total_pruned) /
                  static_cast<double>(total_pruned + total_branches)
            : 0.0;
    std::printf(
        "%d config(s), %llu schedule(s) executed, %.1f%% of naive branches "
        "pruned, %d failure(s)\n",
        configs, static_cast<unsigned long long>(total_schedules), pct,
        failures);
    if (probe && !probe_bug_found) {
      std::fprintf(stderr,
                   "dpmlmc: --probe ran but mc-probe-arrival's planted bug "
                   "was never detected\n");
      return 1;
    }
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpmlmc: %s\n", e.what());
    return 1;
  }
}
