// Adaptive re-planning under contention (src/adapt, docs/MODEL.md §12).
//
// The selection tables the tuner ships are measured on a pristine, solo
// cluster; PR 9's multi-tenant fabric showed how badly such a plan can age
// once the fabric is shared. This study closes the loop and measures the
// payoff: a 4-node allreduce subject job (ring, 256KB — the static plan a
// solo tuner would pick) runs round-robin-interleaved with a co-tenant
// allreduce while seeded background traffic ramps from 0 to 80% of edge
// bandwidth, once with static selection and once with --adapt re-planning
// (ring flips to the multi-channel cring under observed contention). A
// final row fails an ECMP way mid-run with no recovery: the failure event
// marks plans stale and the next iteration re-plans on the degraded fabric.
//
// Expected shape: even at bg=0 the interleaved co-tenant is real contention
// (round-robin makes the jobs share edge links — that is the point of the
// placement axis), so the adaptive column already re-plans and wins ~1.2x;
// the gap widens to ~2.7x at 80% load and ~3.2x under the way failure,
// where the static ring's one flow per hop is starved by the max-min
// allocator while cring's channels claim a proportionally larger aggregate
// share. The level-0-no-op guarantee (adaptive ≡ static when the fabric is
// genuinely quiet) is golden-locked by tests/adapt_test.cpp on the
// block-placed default mix, where no links are shared.
//
// Every cell is a deterministic function of (cluster, jobs, options):
// tables are byte-identical across --jobs widths and reruns.
//
// --smoke: two loads on the test cluster only.
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/cluster.hpp"
#include "tenant/tenant.hpp"

namespace {

using namespace dpml;

struct Row {
  std::string label;
  double bg_load = 0.0;
  bool fail = false;
};

struct Config {
  std::vector<net::ClusterConfig> clusters;
  std::vector<Row> rows;
  int ppn = 2;
  int iterations = 6;
  bool smoke = false;
};

Config make_config(bool smoke) {
  Config c;
  c.smoke = smoke;
  c.clusters.push_back(net::test_cluster(8));
  if (smoke) {
    c.rows = {{"bg=0.0", 0.0, false}, {"bg=0.5 + fail", 0.5, true}};
    c.iterations = 2;
    return c;
  }
  // Cluster D: 2-node leaves, 2 ECMP ways, oversubscribed core — the preset
  // where losing a way genuinely halves cross-leaf capacity.
  c.clusters.push_back(net::cluster_by_name("D"));
  c.rows = {{"bg=0.0", 0.0, false}, {"bg=0.2", 0.2, false},
            {"bg=0.4", 0.4, false}, {"bg=0.6", 0.6, false},
            {"bg=0.8", 0.8, false}, {"bg=0.5 + fail", 0.5, true}};
  return c;
}

// The subject: the plan a solo tuner would pick for a 256KB allreduce. Under
// contention the adaptive column re-plans it to multi-channel cring.
tenant::JobSpec subject_job(int iterations) {
  tenant::JobSpec j;
  j.name = "subject";
  j.kind = coll::CollKind::allreduce;
  j.algo = "ring";
  j.nodes = 4;
  j.bytes = 262144;
  j.iterations = iterations;
  return j;
}

tenant::JobSpec cotenant_job(int iterations) {
  tenant::JobSpec j;
  j.name = "tenant";
  j.kind = coll::CollKind::allreduce;
  j.algo = "ring";
  j.nodes = 4;
  j.bytes = 262144;
  j.iterations = iterations;
  return j;
}

tenant::TrafficSpec bg_traffic(double load) {
  tenant::TrafficSpec t;
  t.matrix = tenant::Matrix::uniform;
  t.load = load;
  t.bytes = 262144;
  return t;
}

// Fail an ECMP way mid-run with no recovery: the rest of the run executes
// on the degraded fabric, and adaptive runs re-plan on the failure event.
tenant::FailSpec mid_run_failure() {
  tenant::FailSpec f;
  tenant::FailSpec::Event e;
  e.way = 0;
  e.leaf = -1;
  e.at_us = 400.0;
  e.recover_us = 0.0;
  f.events.push_back(e);
  return f;
}

// Per-point tenant results, committed by slot index so the post-run
// tables are independent of executor scheduling.
std::vector<tenant::TenantResult> result_slots;

// One bench cell: the subject job's shared-run makespan in microseconds
// (jobs[0] is always the subject); the run's perf folds into `perf`.
double subject_makespan(const net::ClusterConfig& cfg, int ppn,
                        const std::vector<tenant::JobSpec>& jobs,
                        const tenant::TenantOptions& opt, std::size_t slot,
                        core::PerfReport& perf) {
  const tenant::TenantResult r = tenant::run_tenants(cfg, ppn, jobs, opt);
  perf.add(r.engine_perf, r.elided_bytes,
           core::FabricCounters{r.max_link_util, r.flows, r.bg_flows,
                                r.fabric_perf});
  result_slots[slot] = r;
  return r.jobs.front().makespan_us;
}

}  // namespace

int main(int argc, char** argv) {
  const benchx::BenchFlags bf = benchx::strip_common_flags(argc, argv);
  const Config c = make_config(bf.smoke);

  benchx::SeriesStore latency;   // subject makespan (us)
  benchx::SeriesStore speedup;   // static makespan / adaptive makespan

  const std::size_t total_points = c.clusters.size() * c.rows.size() * 2;
  result_slots.assign(total_points, tenant::TenantResult{});

  // Slot layout: [cluster][row][0=static, 1=adaptive].
  std::size_t slot_base = 0;
  for (const net::ClusterConfig& cfg : c.clusters) {
    for (const Row& row : c.rows) {
      for (int adapt = 0; adapt < 2; ++adapt) {
        const std::size_t slot = slot_base++;
        const std::string col =
            cfg.name + (adapt != 0 ? " adaptive" : " static");
        benchx::register_point(
            "adapt_contention/" + cfg.name + "/" + row.label + "/" +
                (adapt != 0 ? "adaptive" : "static"),
            latency, row.label, col,
            [&c, &cfg, row, adapt, slot](core::PerfReport& perf) {
              std::vector<tenant::JobSpec> jobs;
              jobs.push_back(subject_job(c.iterations));
              jobs.push_back(cotenant_job(c.iterations));
              tenant::TenantOptions opt;
              opt.seed = 1;
              opt.stagger_max_us = 20.0;
              opt.placement = tenant::Placement::round_robin;
              opt.adapt = adapt != 0;
              if (row.bg_load > 0.0) opt.traffic = bg_traffic(row.bg_load);
              if (row.fail) opt.failures = mid_run_failure();
              return subject_makespan(cfg, c.ppn, jobs, opt, slot, perf);
            });
      }
    }
  }

  // The snapshot tags keep this run's perf_delta.py key: a round-robin
  // adaptive mix is a different workload from a block static one.
  const int rc = benchx::run_benchmarks(
      argc, argv, {{"placement", "\"round-robin\""}, {"adapt", "true"}});

  std::cout << "\nAdaptive re-planning study: 4-node allreduce subject "
               "(256KB ring static plan) + co-tenant, round-robin placement, "
               "ppn "
            << c.ppn << "\n";
  latency.print(
      "subject makespan (us): static selection vs --adapt re-planning",
      "background", 2);

  // Derived speedup table and the headline claim: adaptive must beat static
  // from 40% background load on.
  bool wins_at_heavy_load = true;
  for (std::size_t ci = 0; ci < c.clusters.size(); ++ci) {
    const net::ClusterConfig& cfg = c.clusters[ci];
    for (std::size_t ri = 0; ri < c.rows.size(); ++ri) {
      const std::size_t slot = (ci * c.rows.size() + ri) * 2;
      const double st = result_slots[slot].jobs.front().makespan_us;
      const double ad = result_slots[slot + 1].jobs.front().makespan_us;
      speedup.put(c.rows[ri].label, cfg.name, ad > 0.0 ? st / ad : 0.0);
      if (cfg.name == "D" && (c.rows[ri].bg_load >= 0.4 || c.rows[ri].fail) &&
          !(ad < st)) {
        wins_at_heavy_load = false;
      }
    }
  }
  speedup.print("adaptive speedup (static makespan / adaptive makespan)",
                "background", 3);
  if (!c.smoke) {
    std::cout << "\nadaptive beats static on cluster D at every bg load >= "
                 "0.4 and under failure: "
              << (wins_at_heavy_load ? "yes" : "NO") << "\n";
  }

  std::uint64_t bg_total = 0;
  int shared_max = 0;
  for (const tenant::TenantResult& r : result_slots) {
    bg_total += r.bg_flows;
    shared_max = std::max(shared_max, r.shared_links);
  }
  std::cout << "\n" << result_slots.size() << " tenant mixes, " << bg_total
            << " background flows injected, up to " << shared_max
            << " links shared by both jobs\n";
  return !wins_at_heavy_load && !c.smoke ? 1 : rc;
}
