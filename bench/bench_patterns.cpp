// CommBench-style pattern sweep: every registered collective kind on every
// cluster preset in one command.
//
// For each preset (A-D) the driver measures a representative design of each
// of the nine CollKinds over a message-size sweep: allreduce uses the
// paper's tuned "dpml-auto" stack, reduce_scatter and allgather use their
// DPML multi-leader variants, and every other kind uses its library-style
// "auto" dispatch. One table (rows = sizes, columns = kinds) prints per
// cluster, plus CSV.
//
// Flags beyond the common bench set (--smoke, --jobs N, --perf-json FILE):
//   --data             data mode with bit-exact per-kind verification
//                      (implied by --smoke; failures fail the run)
//   --perturb SPEC     machine perturbations, e.g. "jitter=lognormal:sigma=0.2"
//   --fabric[=links]   flow-level congested fabric
//   --check[=basic|strict]  simcheck MPI-semantics verification
#include <atomic>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

namespace {

using namespace dpml;

struct PatternFlags {
  bool data = false;
  std::string perturb;
  std::string check;
  std::string fabric;
};

// Strip the bench_patterns-specific flags before google-benchmark parses
// argv. Bare --check means basic, bare --fabric means links (both also take
// a space- or =-separated value, dpmlsim-style).
PatternFlags strip_pattern_flags(int& argc, char** argv) {
  PatternFlags f;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next_value = [&](const char* fallback) -> std::string {
      if (i + 1 < argc && argv[i + 1][0] != '-') return argv[++i];
      return fallback;
    };
    if (a == "--data") {
      f.data = true;
    } else if (a == "--check") {
      f.check = next_value("basic");
    } else if (a.rfind("--check=", 0) == 0) {
      f.check = a.substr(8);
    } else if (a == "--fabric") {
      f.fabric = next_value("links");
    } else if (a.rfind("--fabric=", 0) == 0) {
      f.fabric = a.substr(9);
    } else if (a == "--perturb") {
      f.perturb = next_value("");
    } else if (a.rfind("--perturb=", 0) == 0) {
      f.perturb = a.substr(10);
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;
  return f;
}

// Representative design per kind: the tuned allreduce stack, the DPML
// multi-leader variants where data partitioning applies, the library-style
// auto dispatch everywhere else.
core::CollSpec spec_for(core::CollKind kind) {
  core::CollSpec s;
  s.leaders = 4;
  switch (kind) {
    case core::CollKind::allreduce:
      s.algo = "dpml-auto";
      break;
    case core::CollKind::reduce_scatter:
    case core::CollKind::allgather:
      s.algo = "dpml";
      break;
    default:
      s.algo = "auto";
      break;
  }
  return s;
}

std::atomic<int> verify_failures{0};

}  // namespace

int main(int argc, char** argv) {
  const benchx::BenchFlags bf = benchx::strip_common_flags(argc, argv);
  const PatternFlags pf = strip_pattern_flags(argc, argv);

  core::MeasureOptions opt = benchx::default_opts();
  opt.with_data = pf.data || bf.smoke;
  opt.perturb = perturb::PerturbSpec::parse(pf.perturb);
  if (!opt.perturb.empty()) opt.repetitions = 2;
  if (!pf.check.empty()) opt.check = check::check_level_by_name(pf.check);
  if (!pf.fabric.empty())
    opt.fabric = fabric::fabric_level_by_name(pf.fabric);

  // Smoke keeps CI fast but still covers every kind on every preset, with a
  // non-power-of-two node count so the ragged-partition paths run.
  const int nodes = bf.smoke ? 3 : 8;
  const std::vector<std::size_t> sizes =
      bf.smoke ? std::vector<std::size_t>{256, 16384}
               : std::vector<std::size_t>{4, 256, 4096, 65536, 1048576};

  const std::vector<net::ClusterConfig> cfgs = net::all_clusters();
  static std::vector<benchx::SeriesStore> stores;
  stores.resize(cfgs.size());

  for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
    const net::ClusterConfig cfg = cfgs[ci];
    const int ppn = bf.smoke ? std::min(4, cfg.max_ppn()) : cfg.max_ppn();
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      const std::size_t bytes = sizes[si];
      const std::string row = util::format_bytes(bytes);
      for (core::CollKind kind : coll::kAllCollKinds) {
        // Barrier moves no data; one point per cluster is the whole story.
        if (kind == core::CollKind::barrier && si != 0) continue;
        const core::CollSpec spec = spec_for(kind);
        const std::string col = coll::coll_kind_name(kind);
        benchx::register_point(
            "patterns/" + cfg.name + "/" + col + "/bytes:" + row, stores[ci],
            row, col, [=](core::PerfReport& perf) {
              const core::MeasureResult r = core::measure_collective(
                  kind, cfg, nodes, ppn, bytes, spec, opt);
              perf.add(r);
              if (!r.verified) {
                ++verify_failures;
                std::cerr << "VERIFY FAIL: " << cfg.name << " " << col << "/"
                          << spec.algo << " bytes=" << bytes << "\n";
              }
              return r.avg_us;
            });
      }
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);
  for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
    const int ppn = bf.smoke ? std::min(4, cfgs[ci].max_ppn())
                             : cfgs[ci].max_ppn();
    stores[ci].print("Pattern sweep — cluster " + cfgs[ci].name + ", " +
                         std::to_string(nodes) + "x" + std::to_string(ppn) +
                         " (latency us)",
                     "msg size");
  }
  if (verify_failures.load() > 0) {
    std::cerr << verify_failures.load() << " verification failure(s)\n";
    return 1;
  }
  return rc;
}
