// dpmlsim — command-line driver for the simulated-cluster collective lab.
//
// Subcommands:
//   latency     measure one collective design over a size sweep (any of the
//               nine --collective kinds)
//   sweep       leader-count sweep table (Figures 4-7 style)
//   tune        empirical per-size tuning; prints a selection table
//   throughput  osu_mbw_mr relative-throughput table (Figure 1 style)
//   pingpong    osu_latency one-way latency table
//   fit         fit the Section-5 model constants from the transport
//   hpcg        HPCG DDOT application kernel
//   miniamr     miniAMR refinement application kernel
//   stencil     3D halo-exchange stencil with residual allreduces
//   dl          data-parallel SGD gradient synchronization
//   replay      replay a collective trace (apps/replay.hpp)
//   verify      data-mode self-test of every algorithm of every kind
// and, without a subcommand, --tenants N (multi-tenant fabric run) and
// --mc-replay FILE (re-execute a dpmlmc counterexample).
//
// Common flags: --cluster A|B|C|D|test  --nodes N  --ppn P
// Examples:
//   dpmlsim latency --cluster B --nodes 16 --ppn 28 --algo dpml --leaders 8
//   dpmlsim sweep --cluster C --nodes 64 --ppn 28 --sizes 4:1M
//   dpmlsim tune --cluster A --nodes 8 --ppn 28
//   dpmlsim throughput --cluster C --pairs 8
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <iostream>
#include <string>

#include "apps/hpcg.hpp"
#include "apps/miniamr.hpp"
#include "apps/osu.hpp"
#include "apps/stencil.hpp"
#include "apps/dl.hpp"
#include "apps/replay.hpp"
#include "core/executor.hpp"
#include "fabric/fabric.hpp"
#include "mc/explore.hpp"
#include "mc/probes.hpp"
#include "model/fit.hpp"
#include "adapt/adapt.hpp"
#include "perturb/spec.hpp"
#include "net/cluster.hpp"
#include "tenant/tenant.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace dpml;

int usage() {
  std::cout <<
      "usage: dpmlsim <latency|sweep|tune|throughput|pingpong|fit|hpcg|miniamr|stencil|dl|replay|verify> "
      "[--cluster X] [--nodes N] [--ppn P] ...\n"
      "  latency:    --collective KIND --algo NAME --leaders L --pipeline K "
      "--sizes LO:HI[:F] --data\n"
      "  sweep:      --sizes LO:HI[:F]\n"
      "  tune:       --collective KIND --sizes LO:HI[:F]\n"
      "  throughput: --pairs N --sizes LO:HI[:F] --intra\n"
      "  fit:        (no extra flags)\n"
      "  hpcg:       --iterations N --algo NAME\n"
      "  miniamr:    --steps N --blocks B --algo NAME\n"
      "  stencil:    --sweeps N --check-every K --algo NAME\n"
      "  dl:         --steps N --buckets B --bucket BYTES --overlap BOOL\n"
      "  replay:     --trace FILE --reps N --algo NAME\n"
      "  verify:     --nodes N --ppn P  (data-mode self-test, all kinds)\n"
      "common:       --cluster A|B|C|D|test --nodes N --ppn P --rails R\n"
      "              --collective allreduce|reduce|bcast|alltoall|allgather|\n"
      "                reduce_scatter|gather|scatter|barrier\n"
      "              --perturb SPEC  (e.g. \"jitter=lognormal:sigma=0.2;"
      "skew=uniform:max_us=50;seed=7\")\n"
      "              --reps N  (independent noise realizations per point)\n"
      "              --check[=basic|strict]  (simcheck MPI-semantics "
      "verification;\n"
      "                bare --check means basic: unmatched/leaked requests,\n"
      "                count/dtype mismatches, buffer overlap, deadlock "
      "report,\n"
      "                result verification vs a serial reference. strict "
      "adds\n"
      "                exact recv capacities, slot-leak and tracer "
      "span-balance\n"
      "                checks. See docs/CHECKING.md)\n"
      "              --fabric[=links]  (flow-level congested fabric: every\n"
      "                inter-node payload becomes a flow over explicit\n"
      "                node/leaf/core links with max-min fair sharing,\n"
      "                enforcing the cluster's oversubscription. See\n"
      "                docs/MODEL.md §7)\n"
      "              --jobs N  (parallel sweep executor: fan independent\n"
      "                repetitions/points across N >= 1 host threads;\n"
      "                results are byte-identical to --jobs 1. Default:\n"
      "                DPML_JOBS or 1. See docs/MODEL.md §8)\n"
      "              --perf  (print host-side perf counters per point:\n"
      "                simulated events/sec, resumes, callbacks, instants,\n"
      "                queue depth, peak RSS, pool hit rates, wall/sim ms;\n"
      "                on fabric runs also the deterministic allocator\n"
      "                counters: recomputes, filling rounds, link re-sums,\n"
      "                completion wakes and stale wakes)\n"
      "              --perf-json FILE  (write the sweep's aggregate perf\n"
      "                counters as JSON, for trajectory diffs against the\n"
      "                checked-in BENCH_perf.json snapshot)\n"
      "              --tenants N  (multi-tenant fabric run: N concurrent\n"
      "                collective jobs block-placed over the cluster, one\n"
      "                shared max-min fabric arbitrating contention; reports\n"
      "                per-job goodput, slowdown vs solo, stall time, and\n"
      "                hot-link byte attribution. Implies --fabric unless\n"
      "                overridden. See docs/MODEL.md §11)\n"
      "              --bg-traffic [SPEC]  (seeded background flows, e.g.\n"
      "                \"uniform:load=0.3,bytes=64K\" or \"hotspot:"
      "hot_frac=0.8\"\n"
      "                or \"permutation:shift=3\"; bare flag means uniform\n"
      "                defaults. Tenant runs only)\n"
      "              --fail-links [SPEC]  (scheduled ECMP-way failures, e.g.\n"
      "                \"way=0,at_us=30,recover_us=150;way=1,leaf=0,"
      "at_us=60\";\n"
      "                bare flag fails core switch 0 at 30us, recovers at\n"
      "                150us. Live flows reroute deterministically)\n"
      "              --stagger-us X --tenant-iters N --trace-json FILE\n"
      "                (tenant start-offset bound, per-job iteration\n"
      "                override, Chrome trace of the shared run)\n"
      "              --placement block|round-robin|random  (tenant job-to-\n"
      "                node mapping; round-robin/random interleave jobs so\n"
      "                they share links even without oversubscription.\n"
      "                Default: block)\n"
      "              --adapt  (congestion-aware re-planning: between\n"
      "                iterations each tenant job re-selects (algorithm,\n"
      "                leaders) from a contention-keyed table driven by its\n"
      "                observed foreign-traffic/stall/failure signals.\n"
      "                Requires the link fabric. See docs/MODEL.md §12)\n"
      "              --adapt-table FILE  (load the adaptive selection table\n"
      "                from FILE if it exists, and write the run's updated\n"
      "                table back — the offline/online feedback loop)\n"
      "              --list-algorithms  (print the collective registry)\n"
      "              --list-clusters  (print presets with derived fabric\n"
      "                link counts and capacities)\n"
      "              --mc-replay FILE  (re-execute a dpmlmc counterexample\n"
      "                trace: replays the recorded message-matching choices\n"
      "                exactly and reports the schedule's strict-check\n"
      "                outcome. Exit 0: passed; 1: failed as recorded;\n"
      "                3: outcome diverged from the trace. See\n"
      "                docs/CHECKING.md)\n";
  return 2;
}

// --collective KIND (default allreduce).
core::CollKind collective_kind(const util::Args& args) {
  return coll::coll_kind_by_name(args.get("collective", "allreduce"));
}

int cmd_list_algorithms() {
  util::Table t({"collective", "algorithm", "capabilities"});
  for (core::CollKind kind : coll::kAllCollKinds) {
    for (const coll::CollDescriptor* d :
         coll::CollRegistry::instance().list(kind)) {
      std::string caps;
      auto flag = [&caps](const char* name) {
        if (!caps.empty()) caps += ",";
        caps += name;
      };
      if (d->caps.needs_fabric) flag("needs-fabric");
      if (d->caps.uses_leaders) flag("leaders");
      if (d->caps.supports_pipelining) flag("pipelining");
      if (d->caps.world_only) flag("world-only");
      if (d->caps.tunable) flag("tunable");
      if (d->caps.min_comm_size > 1) {
        flag(("min-comm=" + std::to_string(d->caps.min_comm_size)).c_str());
      }
      if (d->caps.max_tune_bytes !=
          std::numeric_limits<std::size_t>::max()) {
        flag(("tune<=" + std::to_string(d->caps.max_tune_bytes)).c_str());
      }
      if (caps.empty()) caps = "-";
      t.row()
          .cell(std::string(coll::coll_kind_name(kind)))
          .cell(d->name)
          .cell(caps);
    }
  }
  t.print(std::cout);
  return 0;
}

int cmd_list_clusters() {
  // Every preset (plus the unit-test config), with the fabric link plan its
  // nodes_per_leaf / oversubscription derive to — the enforced capacities
  // under --fabric.
  util::Table t({"cluster", "nodes", "ppn", "nodes/leaf", "oversub", "leaves",
                 "ecmp ways", "edge (GB/s)", "core way (GB/s)",
                 "leaf core (GB/s)", "links"});
  std::vector<net::ClusterConfig> cfgs = net::all_clusters();
  cfgs.push_back(net::test_cluster());
  for (const net::ClusterConfig& cfg : cfgs) {
    const auto topo = fabric::FabricTopo::derive(cfg, cfg.total_nodes);
    t.row()
        .cell(cfg.name)
        .cell(static_cast<long long>(cfg.total_nodes))
        .cell(static_cast<long long>(cfg.max_ppn()))
        .cell(static_cast<long long>(topo.nodes_per_leaf))
        .cell(cfg.oversubscription, 2)
        .cell(static_cast<long long>(topo.leaves))
        .cell(static_cast<long long>(topo.ecmp_ways))
        .cell(topo.node_link_gbps, 1)
        .cell(topo.core_way_gbps, 2)
        .cell(topo.leaf_core_gbps(), 1)
        .cell(static_cast<long long>(topo.num_links()));
  }
  t.print(std::cout);
  return 0;
}

// --perf-json FILE: write the report's snapshot; 1 when the file cannot be
// written.
int write_perf_snapshot(
    const std::string& path, const core::PerfReport& report,
    const std::string& tool,
    const std::vector<std::pair<std::string, std::string>>& tags = {}) {
  std::ofstream os(path);
  os << report.json(tool, tags);
  if (!os) {
    std::cerr << "cannot write perf json " << path << "\n";
    return 1;
  }
  std::cout << "perf counters written to " << path << "\n";
  return 0;
}

// The --sizes sweep (lo:hi[:factor]) of the latency-style commands.
std::vector<std::size_t> sweep_sizes(const util::Args& args) {
  return util::Args::parse_size_range("--sizes", args.get("sizes", "4:1M"));
}

core::MeasureOptions measure_opts(const util::Args& args) {
  core::MeasureOptions opt;
  opt.iterations = args.get_int("iterations", 3);
  opt.warmup = args.get_int("warmup", 1);
  opt.with_data = args.get_bool("data", false);
  opt.repetitions = args.get_int("reps", 1);
  // Unknown injectors/parameters throw util::InvariantError naming every
  // valid one; main's catch turns that into the CLI error message.
  opt.perturb = perturb::PerturbSpec::parse(args.get("perturb", ""));
  if (args.has("check")) {
    const std::string level = args.get("check", "");
    // Bare "--check" parses as the boolean "true": treat it as basic.
    opt.check = (level.empty() || level == "true")
                    ? check::CheckLevel::basic
                    : check::check_level_by_name(level);
  }
  if (args.has("fabric")) {
    const std::string level = args.get("fabric", "");
    // Bare "--fabric" parses as the boolean "true": treat it as links.
    opt.fabric = (level.empty() || level == "true")
                     ? fabric::FabricLevel::links
                     : fabric::fabric_level_by_name(level);
  }
  return opt;
}

int cmd_latency(const util::Args& args, const net::ClusterConfig& cfg,
                int nodes, int ppn) {
  const core::CollKind kind = collective_kind(args);
  core::CollSpec spec;
  spec.algo =
      args.get("algo", kind == core::CollKind::allreduce ? "dpml" : "auto");
  spec.leaders = args.get_int("leaders", 4);
  spec.pipeline_k = args.get_int("pipeline", 1);
  // Fail fast on unknown names (the error lists the registered ones).
  coll::CollRegistry::instance().at(kind, spec.algo);
  // --table FILE: dispatch through a tuned selection table instead (its
  // level-0 entries; see adapt::AdaptiveTable).
  std::optional<adapt::AdaptiveTable> table;
  const std::string table_path = args.get_path("table");
  if (!table_path.empty()) {
    std::ifstream is(table_path);
    if (!is) {
      std::cerr << "cannot open selection table " << table_path << "\n";
      return 1;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    table = adapt::AdaptiveTable::parse(ss.str());
  }
  const auto sizes = sweep_sizes(args);
  const core::MeasureOptions opt = measure_opts(args);
  // Under perturbations (or multi-repetition runs) the latency is a
  // distribution, so the table widens to median/p99 plus the measured
  // arrival imbalance.
  const bool perturbed = !opt.perturb.empty() || opt.repetitions > 1;
  const bool fabric_on = opt.fabric != fabric::FabricLevel::none;
  const bool perf_on = args.get_bool("perf", false);
  const std::string perf_json = args.get_path("perf-json");
  std::vector<std::string> header{"msg size", "design", "latency (us)"};
  if (perturbed) {
    header.insert(header.end(),
                  {"median (us)", "p99 (us)", "entry skew (us)", "wait (us)"});
  }
  if (fabric_on) header.push_back("max link util");
  if (perf_on) header.insert(header.end(), {"events", "Mev/s", "wall/sim"});
  header.push_back("verified");
  util::Table t(header);
  // Host-side perf of the whole size sweep (--perf and --perf-json).
  core::PerfReport report;
  report.time_sweep([&] {
    for (std::size_t bytes : sizes) {
      const core::CollSpec used =
          table ? table->level0(kind, bytes, cfg.has_sharp()) : spec;
      const auto r =
          core::measure_collective(kind, cfg, nodes, ppn, bytes, used, opt);
      report.add(r);
      t.row()
          .cell(util::format_bytes(bytes))
          .cell(used.label(kind))
          .cell(r.avg_us, 2);
      if (perturbed) {
        t.cell(r.median_us, 2)
            .cell(r.p99_us, 2)
            .cell(r.entry_skew_avg_us, 2)
            .cell(r.wait_avg_us, 2);
      }
      if (fabric_on) t.cell(r.max_link_util, 3);
      if (perf_on) {
        t.cell(static_cast<long long>(r.perf.events))
            .cell(r.perf.events_per_sec / 1e6, 2)
            .cell(r.perf.wall_ms_per_sim_ms, 2);
      }
      t.cell(std::string(r.verified ? "yes" : "NO"));
    }
  });
  std::cout << coll::coll_kind_name(kind) << " "
            << (table ? std::string("table-driven") : spec.label(kind))
            << " on cluster " << cfg.name << ", " << nodes << "x" << ppn;
  if (!opt.perturb.empty()) {
    std::cout << "\nperturbed: " << opt.perturb.to_string() << " ("
              << opt.repetitions << " rep"
              << (opt.repetitions == 1 ? "" : "s") << ")";
  }
  std::cout << "\n";
  t.print(std::cout);
  if (perf_on) std::cout << "\n" << report.line() << "\n";
  return perf_json.empty()
             ? 0
             : write_perf_snapshot(perf_json, report, "dpmlsim latency");
}

int cmd_verify(const util::Args& args, const net::ClusterConfig& cfg) {
  // Self-test: run every registered algorithm of every collective kind in
  // data mode on a small shape and check results bit-for-bit against the
  // serial reference for that kind's semantics.
  const int nodes = args.get_int("nodes", 4);
  const int ppn = std::min(args.get_int("ppn", 4), cfg.max_ppn());
  core::MeasureOptions opt;
  opt.with_data = true;
  opt.iterations = 2;
  opt.warmup = 1;
  util::Table t({"collective", "algorithm", "256B", "17KB"});
  bool all_ok = true;
  for (core::CollKind kind : coll::kAllCollKinds) {
    for (const coll::CollDescriptor* d :
         coll::CollRegistry::instance().list(kind)) {
      if (d->caps.needs_fabric && !cfg.has_sharp()) continue;
      core::CollSpec spec;
      spec.algo = d->name;
      t.row()
          .cell(std::string(coll::coll_kind_name(kind)))
          .cell(d->name);
      for (std::size_t bytes : {256ul, 17408ul}) {
        const auto r =
            core::measure_collective(kind, cfg, nodes, ppn, bytes, spec, opt);
        all_ok &= r.verified;
        t.cell(std::string(r.verified ? "ok" : "FAIL"));
      }
    }
  }
  t.print(std::cout);
  std::cout << (all_ok ? "all designs verified bit-for-bit\n"
                       : "VERIFICATION FAILURES\n");
  return all_ok ? 0 : 1;
}

int cmd_sweep(const util::Args& args, const net::ClusterConfig& cfg,
              int nodes, int ppn) {
  const auto sizes = sweep_sizes(args);
  std::vector<std::string> header{"msg size"};
  for (int l : {1, 2, 4, 8, 16}) header.push_back("l=" + std::to_string(l));
  util::Table t(header);
  for (std::size_t bytes : sizes) {
    t.row().cell(util::format_bytes(bytes));
    for (int l : {1, 2, 4, 8, 16}) {
      core::CollSpec spec;
      spec.algo = "dpml";
      spec.leaders = l;
      t.cell(core::measure_collective(core::CollKind::allreduce, cfg, nodes,
                                      ppn, bytes, spec, measure_opts(args))
                 .avg_us,
             2);
    }
  }
  std::cout << "DPML leader sweep, cluster " << cfg.name << ", " << nodes
            << "x" << ppn << " (latency us)\n";
  t.print(std::cout);
  return 0;
}

int cmd_tune(const util::Args& args, const net::ClusterConfig& cfg, int nodes,
             int ppn) {
  const auto sizes = sweep_sizes(args);
  const std::string out = args.get_path("out");
  const auto table = adapt::AdaptiveTable::tune(
      collective_kind(args), cfg, nodes, ppn, sizes, measure_opts(args));
  if (!out.empty()) {
    std::ofstream os(out);
    os << table.serialize();
    os.close();
    if (!os) {
      std::cerr << "cannot write selection table " << out << "\n";
      return 1;
    }
    std::cout << "selection table written to " << out << "\n";
  } else {
    std::cout << table.serialize();
  }
  return 0;
}

int cmd_pingpong(const util::Args& args, const net::ClusterConfig& cfg) {
  const bool intra = args.get_bool("intra", false);
  const auto sizes = sweep_sizes(args);
  util::Table t({"msg size", "one-way latency"});
  for (std::size_t bytes : sizes) {
    t.row()
        .cell(util::format_bytes(bytes))
        .cell(util::format_seconds(apps::osu_latency(cfg, bytes, intra)));
  }
  std::cout << (intra ? "intra-node (same socket)" : "inter-node")
            << " pingpong, cluster " << cfg.name << "\n";
  t.print(std::cout);
  return 0;
}

int cmd_throughput(const util::Args& args, const net::ClusterConfig& cfg,
                   int /*nodes*/, int /*ppn*/) {
  const int pairs = args.get_int("pairs", 8);
  const bool intra = args.get_bool("intra", false);
  const auto sizes = sweep_sizes(args);
  util::Table t({"msg size", "1 pair (MB/s)", "aggregate (MB/s)", "relative"});
  for (std::size_t bytes : sizes) {
    apps::MbwMrOptions one;
    one.pairs = 1;
    one.bytes = bytes;
    one.intra_node = intra;
    apps::MbwMrOptions many = one;
    many.pairs = pairs;
    const auto r1 = apps::osu_mbw_mr(cfg, one);
    const auto rn = apps::osu_mbw_mr(cfg, many);
    t.row()
        .cell(util::format_bytes(bytes))
        .cell(r1.mb_per_s, 1)
        .cell(rn.mb_per_s, 1)
        .cell(rn.mb_per_s / r1.mb_per_s, 2);
  }
  std::cout << (intra ? "intra-node" : "inter-node") << " throughput, "
            << pairs << " pairs, cluster " << cfg.name << "\n";
  t.print(std::cout);
  return 0;
}

int cmd_fit(const net::ClusterConfig& cfg) {
  const auto f = model::fit_from_simulation(cfg);
  util::Table t({"constant", "fitted", "meaning"});
  t.row().cell(std::string("a")).cell(util::format_seconds(f.a)).cell(
      std::string("inter-node startup"));
  t.row().cell(std::string("b")).cell(f.b * 1e9, 4).cell(
      std::string("inter-node ns/byte"));
  t.row().cell(std::string("a'")).cell(util::format_seconds(f.a2)).cell(
      std::string("shared-memory startup"));
  t.row().cell(std::string("b'")).cell(f.b2 * 1e9, 4).cell(
      std::string("shared-memory ns/byte"));
  t.row().cell(std::string("c")).cell(f.c * 1e9, 4).cell(
      std::string("reduction ns/byte"));
  if (cfg.oversubscription > 1.0 && cfg.total_nodes > cfg.nodes_per_leaf) {
    t.row()
        .cell(std::string("os"))
        .cell(model::fit_oversub_factor(cfg), 3)
        .cell(std::string("core oversubscription slowdown (--fabric)"));
  }
  std::cout << "Section-5 model constants fitted from the simulated "
            << "transport of cluster " << cfg.name << "\n";
  t.print(std::cout);
  return 0;
}

// --algo of the allreduce-driven application subcommands: any registered
// allreduce algorithm (an unknown name fails listing the registered ones).
std::string app_algo(const util::Args& args, const char* fallback) {
  return coll::CollRegistry::instance()
      .at(core::CollKind::allreduce, args.get("algo", fallback))
      .name;
}

int cmd_hpcg(const util::Args& args, const net::ClusterConfig& cfg, int nodes,
             int ppn) {
  apps::HpcgOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  o.iterations = args.get_int("iterations", 25);
  o.spec.algo = app_algo(args, "mvapich2");
  const auto r = apps::run_hpcg(cfg, o);
  std::cout << "HPCG on cluster " << cfg.name << ", " << nodes * ppn
            << " ranks, " << o.iterations << " iterations with "
            << o.spec.algo << ":\n"
            << "  DDOT total:  " << util::format_seconds(r.ddot_s) << "\n"
            << "  per DDOT:    " << r.ddot_avg_us << " us\n"
            << "  CG loop:     " << util::format_seconds(r.total_s) << "\n";
  return 0;
}

int cmd_stencil(const util::Args& args, const net::ClusterConfig& cfg,
                int nodes, int ppn) {
  apps::StencilOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  o.sweeps = args.get_int("sweeps", 20);
  o.check_every = args.get_int("check-every", 4);
  o.spec.algo = app_algo(args, "dpml-auto");
  const auto r = apps::run_stencil(cfg, o);
  std::cout << "3D stencil on cluster " << cfg.name << ", grid " << r.grid[0]
            << "x" << r.grid[1] << "x" << r.grid[2] << ":\n"
            << "  total:      " << util::format_seconds(r.total_s) << "\n"
            << "  halo:       " << util::format_seconds(r.halo_s) << "\n"
            << "  allreduce:  " << util::format_seconds(r.allreduce_s)
            << " over " << r.residual_checks << " residual checks\n";
  return 0;
}

int cmd_dl(const util::Args& args, const net::ClusterConfig& cfg, int nodes,
           int ppn) {
  apps::DlOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  o.steps = args.get_int("steps", 4);
  o.buckets = args.get_int("buckets", 16);
  o.bucket_bytes = args.get_bytes("bucket", 4 << 20);
  o.overlap = args.get_bool("overlap", true);
  o.spec.algo = app_algo(args, "dpml-auto");
  const auto r = apps::run_dl_training(cfg, o);
  std::cout << "SGD on cluster " << cfg.name << " with "
            << o.spec.algo
            << (o.overlap ? " (overlapped)" : " (blocking)") << ":\n"
            << "  step time:     " << util::format_seconds(r.step_s) << "\n"
            << "  exposed comm:  " << util::format_seconds(r.exposed_comm_s)
            << "\n";
  return 0;
}

int cmd_replay(const util::Args& args, const net::ClusterConfig& cfg,
               int nodes, int ppn) {
  std::vector<apps::TraceOp> trace;
  const std::string path = args.get_path("trace");
  if (path.empty()) {
    trace = apps::parse_trace(apps::example_trace());
    std::cout << "(no --trace file given; replaying the built-in "
                 "production-like mix)\n";
  } else {
    std::ifstream is(path);
    if (!is) {
      std::cerr << "cannot open trace file " << path << "\n";
      return 1;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    trace = apps::parse_trace(ss.str());
  }
  apps::ReplayOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  o.repetitions = args.get_int("reps", 1);
  o.spec.algo = app_algo(args, "dpml-auto");
  const auto r = apps::replay_trace(cfg, trace, o);
  std::cout << "replayed " << r.ops << " collective ops on cluster "
            << cfg.name << " with " << o.spec.algo
            << ":\n  total: " << util::format_seconds(r.total_s)
            << "\n  in collectives: " << util::format_seconds(r.comm_s)
            << " (" << (r.comm_s / r.total_s) * 100.0 << "%)\n";
  return 0;
}

int cmd_miniamr(const util::Args& args, const net::ClusterConfig& cfg,
                int nodes, int ppn) {
  apps::MiniAmrOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  o.refine_steps = args.get_int("steps", 10);
  o.blocks_per_rank = args.get_int("blocks", 32);
  o.spec.algo = app_algo(args, "dpml-auto");
  const auto r = apps::run_miniamr(cfg, o);
  std::cout << "miniAMR on cluster " << cfg.name << ", " << nodes * ppn
            << " ranks, " << o.refine_steps << " steps with "
            << o.spec.algo << ":\n"
            << "  refinement total: " << util::format_seconds(r.refine_s)
            << "\n  per step:         " << r.per_step_us << " us\n"
            << "  final blocks:     " << r.final_blocks << "\n";
  return 0;
}

// Multi-tenant fabric run (docs/MODEL.md §11): N concurrent jobs on one
// shared flow fabric, with optional seeded background traffic and scheduled
// ECMP-way failures.
int cmd_tenants(const util::Args& args, const net::ClusterConfig& cfg,
                int nodes, int ppn) {
  const int njobs = args.get_int("tenants", 2);
  const std::string perf_json = args.get_path("perf-json");
  tenant::TenantOptions opt;
  opt.seed = args.get_int("seed", 1);
  opt.stagger_max_us = args.get_double("stagger-us", 20.0);
  opt.perturb = perturb::PerturbSpec::parse(args.get("perturb", ""));
  if (args.has("fabric")) {
    const std::string level = args.get("fabric", "");
    opt.fabric = (level.empty() || level == "true")
                     ? fabric::FabricLevel::links
                     : fabric::fabric_level_by_name(level);
  }
  if (args.has("bg-traffic")) {
    const std::string spec = args.get("bg-traffic", "");
    // Bare "--bg-traffic" parses as the boolean "true": uniform defaults.
    opt.traffic = (spec.empty() || spec == "true")
                      ? tenant::TrafficSpec::parse("uniform")
                      : tenant::TrafficSpec::parse(spec);
  }
  if (args.has("fail-links")) {
    const std::string spec = args.get("fail-links", "");
    opt.failures = (spec.empty() || spec == "true")
                       ? tenant::FailSpec::default_spec()
                       : tenant::FailSpec::parse(spec);
  }
  opt.trace_json = args.get_path("trace-json");
  if (args.has("placement")) {
    opt.placement = tenant::placement_by_name(args.get("placement", "block"));
  }
  opt.adapt = args.get_bool("adapt", false);
  const std::string adapt_table_path = args.get_path("adapt-table");
  if (!adapt_table_path.empty()) {
    opt.adapt = true;
    std::ifstream in(adapt_table_path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      opt.table = adapt::AdaptiveTable::parse(text.str());
    }
  }
  std::vector<tenant::JobSpec> jobs = tenant::default_jobs(njobs, cfg, nodes);
  if (args.has("tenant-iters")) {
    const int iters = args.get_int("tenant-iters", 4);
    for (tenant::JobSpec& j : jobs) j.iterations = iters;
  }
  tenant::TenantResult r;
  core::PerfReport report;
  report.time_sweep([&] { r = tenant::run_tenants(cfg, ppn, jobs, opt); });
  tenant::fold_perf(r, opt, report);

  std::vector<std::string> cols = {
      "job", "kind", "algorithm", "nodes", "ranks", "bytes", "start (us)",
      "makespan (us)", "goodput (GB/s)", "solo (us)", "slowdown", "stall (us)",
      "hot-link share"};
  if (opt.adapt) {
    cols.push_back("final plan");
    cols.push_back("replans");
  }
  util::Table t(cols);
  for (const tenant::JobStats& j : r.jobs) {
    util::Table& row = t.row();
    row.cell(j.name)
        .cell(j.kind)
        .cell(j.algo)
        .cell(static_cast<long long>(j.nodes))
        .cell(static_cast<long long>(j.ranks))
        .cell(util::format_bytes(j.bytes))
        .cell(j.start_us, 2)
        .cell(j.makespan_us, 2)
        .cell(j.goodput_gbps, 3)
        .cell(j.solo_us, 2)
        .cell(j.slowdown, 3)
        .cell(j.stall_us, 2)
        .cell(j.link_share, 3);
    if (opt.adapt) {
      std::string plan = j.final_algo;
      if (j.final_leaders > 1) {
        plan += " x" + std::to_string(j.final_leaders);
      }
      row.cell(plan).cell(static_cast<long long>(j.replans));
    }
  }
  std::cout << njobs << " tenant job(s) on cluster " << cfg.name << ", "
            << nodes << " nodes x " << ppn << " ppn, placement "
            << tenant::placement_name(opt.placement)
            << (opt.adapt ? ", adaptive re-planning on" : "");
  if (!opt.traffic.empty()) {
    std::cout << "\nbackground: " << opt.traffic.to_string();
  }
  if (!opt.failures.empty()) {
    std::cout << "\nfailures: " << opt.failures.to_string();
  }
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "shared run: makespan " << r.makespan_us << " us, " << r.events
            << " events, " << r.flows << " fabric flows (" << r.bg_flows
            << " background), max avg link util " << r.max_link_util
            << ", peak " << r.peak_link_util;
  if (!r.hot_link.empty()) {
    std::cout << ", hottest link " << r.hot_link << " (bg share "
              << r.hot_link_bg_share << ")";
  }
  std::cout << ", " << r.shared_links << " link(s) shared by >1 job\n";
  if (args.get_bool("perf", false)) std::cout << report.line() << "\n";
  if (!adapt_table_path.empty() && !r.adapt_table.empty()) {
    std::ofstream os(adapt_table_path);
    if (!os) {
      std::cerr << "cannot write adapt table " << adapt_table_path << "\n";
      return 1;
    }
    os << r.adapt_table;
    std::cout << "adaptive selection table written to " << adapt_table_path
              << "\n";
  }
  if (perf_json.empty()) return 0;
  return write_perf_snapshot(
      perf_json, report, "dpmlsim tenants",
      {{"placement",
        "\"" + std::string(tenant::placement_name(opt.placement)) + "\""},
       {"adapt", opt.adapt ? "true" : "false"}});
}

// --mc-replay FILE: re-execute one explored schedule from a dpmlmc
// counterexample trace (src/mc/). Distinct from the `replay` subcommand,
// which replays an application communication trace.
int cmd_mc_replay(const std::string& path) {
  mc::ensure_probe_algorithms();
  const mc::Trace t = mc::load_trace(path);
  std::cout << "mc-replay: " << t.config.label() << ", "
            << t.choices.size() << " recorded choice(s), recorded outcome: "
            << (t.failure_type.empty() ? "pass" : t.failure_type) << "\n";
  const mc::Trace obs = mc::run_schedule(t);
  if (obs.failure_type.empty()) {
    std::cout << "schedule passed strict checking\n";
  } else {
    std::cout << "schedule failed (" << obs.failure_type << "):\n"
              << obs.failure_report << "\n";
    if (!obs.deadlock_json.empty()) {
      std::cout << "wait-cycle: " << obs.deadlock_json << "\n";
    }
  }
  if (obs.failure_type != t.failure_type) {
    std::cerr << "dpmlsim: replay outcome diverged from the trace (recorded "
              << (t.failure_type.empty() ? "pass" : t.failure_type)
              << ", observed "
              << (obs.failure_type.empty() ? "pass" : obs.failure_type)
              << ")\n";
    return 3;
  }
  return obs.failure_type.empty() ? 0 : 1;
}

int run(const util::Args& args) {
  try {
    // --jobs N sets the process-wide sweep-executor width: every measure()
    // call fans its repetitions (and sweeps their points) across N threads
    // while staying byte-identical to the serial order (docs/MODEL.md §8).
    if (args.has("jobs")) {
      core::set_default_jobs(core::parse_jobs(args.get("jobs")));
    }
    if (args.get_bool("list-algorithms", false)) return cmd_list_algorithms();
    if (args.get_bool("list-clusters", false)) return cmd_list_clusters();
    if (args.has("mc-replay")) return cmd_mc_replay(args.get("mc-replay"));
    if (args.positional().empty() && !args.has("tenants")) return usage();
    net::ClusterConfig cfg = net::cluster_by_name(args.get("cluster", "B"));
    const int rails = args.get_int("rails", 1);
    if (rails > 1) cfg = net::with_rails(cfg, rails);
    const int nodes = args.get_int("nodes", 8);
    if (nodes > cfg.total_nodes) {
      // Extrapolated sweep: grow the preset to the requested node count
      // rather than failing (fig10-style extreme-scale curves).
      std::cerr << "note: cluster " << cfg.name << " has " << cfg.total_nodes
                << " nodes; extrapolating its node/NIC model to " << nodes
                << "\n";
      cfg = net::with_nodes(std::move(cfg), nodes);
    }
    const int ppn = args.get_int("ppn", cfg.max_ppn());
    if (args.has("tenants")) return cmd_tenants(args, cfg, nodes, ppn);
    const std::string cmd = args.positional()[0];
    if (cmd == "latency") return cmd_latency(args, cfg, nodes, ppn);
    if (cmd == "sweep") return cmd_sweep(args, cfg, nodes, ppn);
    if (cmd == "tune") return cmd_tune(args, cfg, nodes, ppn);
    if (cmd == "throughput") return cmd_throughput(args, cfg, nodes, ppn);
    if (cmd == "pingpong") return cmd_pingpong(args, cfg);
    if (cmd == "fit") return cmd_fit(cfg);
    if (cmd == "hpcg") return cmd_hpcg(args, cfg, nodes, ppn);
    if (cmd == "miniamr") return cmd_miniamr(args, cfg, nodes, ppn);
    if (cmd == "stencil") return cmd_stencil(args, cfg, nodes, ppn);
    if (cmd == "dl") return cmd_dl(args, cfg, nodes, ppn);
    if (cmd == "replay") return cmd_replay(args, cfg, nodes, ppn);
    if (cmd == "verify") return cmd_verify(args, cfg);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "dpmlsim: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int rc = run(args);
  if (rc != 0) return rc;
  // A flag the command never read is a typo or a retired option: reject it
  // rather than let the run silently ignore it.
  const std::vector<std::string> unknown = args.unused();
  for (const std::string& key : unknown) {
    std::cerr << "dpmlsim: unknown flag --" << key << "\n";
  }
  return unknown.empty() ? 0 : 2;
}
