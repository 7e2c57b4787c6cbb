// Process-arrival-pattern (PAP) imbalance study.
//
// Real applications never enter a collective simultaneously: Faraj/Yuan and
// Proficz measured tens-of-microseconds arrival skew dominating small-message
// collective cost. This bench sweeps uniform arrival skew over the allreduce
// designs and reports, per message size:
//   1. absolute latency vs skew, and
//   2. relative degradation T_skew / T_0 (each design against its own
//      clean baseline).
//
// Expected shape (the Proficz-style finding): in the small/medium-message
// regime where the flat designs (recursive doubling, binomial) are the
// baseline-fastest choice, they lose the most *relative* performance as skew
// grows — the added wait is roughly the worst straggler's offset for every
// design, which is a much larger fraction of a short flat run than of a
// multi-leader DPML run. Multi-leader DPML both closes the absolute gap and
// degrades more gracefully, which is the robustness argument for
// hierarchical designs under realistic arrival patterns.
//
// --smoke: tiny shape (test cluster, 4x4) for CI.
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/cluster.hpp"
#include "perturb/spec.hpp"

namespace {

using namespace dpml;

struct Config {
  net::ClusterConfig cfg;
  int nodes = 8;
  int ppn = 28;
  std::vector<std::size_t> sizes;
  std::vector<double> skews_us;       // 0 first: the clean baseline
  std::vector<coll::CollSpec> designs;
  int reps = 5;
  int iterations = 3;
};

coll::CollSpec design(const char* algo, int leaders = 1) {
  coll::CollSpec s;
  s.algo = algo;
  s.leaders = leaders;
  return s;
}

std::string label(const coll::CollSpec& s) {
  return s.label(coll::CollKind::allreduce);
}

Config make_config(bool smoke) {
  Config c;
  if (smoke) {
    c.cfg = net::test_cluster(4);
    c.nodes = 4;
    c.ppn = 4;
    c.sizes = {256, 1024};
    c.skews_us = {0.0, 25.0};
    c.designs = {design("rd"), design("binomial"), design("single-leader"),
                 design("dpml", 2), design("dpml", 4)};
    c.reps = 2;
    c.iterations = 2;
    return c;
  }
  c.cfg = net::cluster_b();
  c.sizes = {64, 256, 1024, 4096, 16384};
  c.skews_us = {0.0, 10.0, 25.0, 50.0};
  c.designs = {design("rd"),         design("binomial"),
               design("single-leader"), design("dpml", 1),
               design("dpml", 4),       design("dpml", 16)};
  return c;
}

double skewed_latency(const Config& c, std::size_t bytes,
                      const coll::CollSpec& spec, double skew_us,
                      core::PerfReport& perf) {
  core::MeasureOptions opt;
  opt.iterations = c.iterations;
  opt.warmup = 1;
  opt.repetitions = c.reps;
  if (skew_us > 0.0) {
    opt.perturb = perturb::PerturbSpec::parse(
        "skew=uniform:max_us=" + std::to_string(skew_us) + ";seed=7");
  }
  return benchx::measure_us(coll::CollKind::allreduce, c.cfg, c.nodes, c.ppn,
                            bytes, spec, opt, perf);
}

std::string skew_row(double skew_us) {
  return "skew " + std::to_string(static_cast<int>(skew_us)) + "us";
}

}  // namespace

int main(int argc, char** argv) {
  const Config c = make_config(benchx::strip_common_flags(argc, argv).smoke);
  // One latency store per message size: rows = skew level, cols = design.
  std::vector<benchx::SeriesStore> stores(c.sizes.size());

  for (std::size_t si = 0; si < c.sizes.size(); ++si) {
    const std::size_t bytes = c.sizes[si];
    for (double skew : c.skews_us) {
      for (const coll::CollSpec& spec : c.designs) {
        const std::string name = "pap/bytes:" + util::format_bytes(bytes) +
                                 "/skew:" +
                                 std::to_string(static_cast<int>(skew)) +
                                 "us/" + label(spec);
        benchx::register_point(
            name, stores[si], skew_row(skew), label(spec),
            [&c, bytes, spec, skew](core::PerfReport& perf) {
              return skewed_latency(c, bytes, spec, skew, perf);
            });
      }
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);

  std::cout << "\nPAP imbalance study on cluster " << c.cfg.name << ", "
            << c.nodes << "x" << c.ppn << " (" << c.reps
            << " noise realizations per point)\n";
  const std::string clean = skew_row(0.0);
  const std::string worst = skew_row(c.skews_us.back());
  for (std::size_t si = 0; si < c.sizes.size(); ++si) {
    const std::string size = util::format_bytes(c.sizes[si]);
    stores[si].print("PAP " + size + " — allreduce latency (us) vs arrival "
                     "skew", "arrival skew");

    // Relative degradation: each design against its own clean baseline.
    benchx::SeriesStore ratio;
    for (double skew : c.skews_us) {
      if (skew == 0.0) continue;
      for (const coll::CollSpec& spec : c.designs) {
        ratio.put(skew_row(skew), label(spec),
                  stores[si].at(skew_row(skew), label(spec)) /
                      stores[si].at(clean, label(spec)));
      }
    }
    ratio.print("PAP " + size + " — degradation ratio T_skew / T_0",
                "arrival skew");

    const auto& flat = c.designs.front();                 // rd
    const auto& dpml_best = c.designs.back();             // largest leader count
    const double flat_loss =
        stores[si].at(worst, label(flat)) / stores[si].at(clean, label(flat));
    const double dpml_loss = stores[si].at(worst, label(dpml_best)) /
                             stores[si].at(clean, label(dpml_best));
    std::cout << "\n" << size << " @ " << c.skews_us.back() << "us max skew: "
              << label(flat) << " degrades " << flat_loss << "x vs "
              << label(dpml_best) << " " << dpml_loss << "x"
              << (flat_loss > dpml_loss
                      ? " — flat design loses more under arrival skew\n"
                      : " — multi-leader loses more at this size\n");
  }
  return rc;
}
