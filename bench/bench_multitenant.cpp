// Multi-tenant fabric study (src/tenant, docs/MODEL.md §11).
//
// The paper benchmarks each collective with the machine to itself; this
// study asks what happens to a bandwidth-bound probe job when it has to
// share the fabric. A 4-node alltoall (64KB blocks, the most
// fabric-sensitive pattern in the registry) runs against increasing
// co-tenant pressure:
//   1. degradation curve: probe slowdown (shared makespan / solo makespan)
//      as seeded background traffic ramps from 0 to 80% of per-node edge
//      bandwidth, with one co-tenant allreduce job always present, and
//   2. tenancy configs: probe slowdown for 1/2/3 concurrent jobs, then
//      2 jobs plus background load, then the same with an ECMP-way failure
//      and recovery mid-run.
//
// Expected shape: at low background load the probe hides contention in its
// latency slack and the slowdown stays ~1.0; past ~50% load the max-min
// allocator visibly squeezes the probe's flows and the curve turns up
// (~2x at 80%). Block-placed co-tenant jobs alone barely move the probe
// (disjoint node sets share no edge links; cross-leaf ways are per-leaf),
// which is itself the point: on this fabric, *traffic*, not job count, is
// what hurts — so the failure rows, which thin the core under load, hurt
// most on the oversubscribed 2-way cluster D.
//
// Every cell is a deterministic function of (cluster, jobs, options):
// tables are byte-identical across --jobs widths and reruns.
//
// --smoke: probe + one config per store on the test cluster only.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/cluster.hpp"
#include "tenant/tenant.hpp"

namespace {

using namespace dpml;

struct Config {
  std::vector<net::ClusterConfig> clusters;
  std::vector<double> bg_loads;  // degradation-curve x axis (0 = idle)
  int ppn = 2;
  int iterations = 3;
  bool smoke = false;
};

Config make_config(bool smoke) {
  Config c;
  c.smoke = smoke;
  c.clusters.push_back(net::test_cluster(8));
  if (smoke) {
    c.bg_loads = {0.0, 0.5};
    c.iterations = 2;
    return c;
  }
  // Cluster D: 2-node leaves, 2 ECMP ways, 1.25:1 oversubscribed core — the
  // preset where a way failure genuinely halves cross-leaf capacity.
  c.clusters.push_back(net::cluster_by_name("D"));
  c.bg_loads = {0.0, 0.2, 0.5, 0.8};
  return c;
}

// The probe: bandwidth-bound enough that fabric contention, not endpoint
// serialization, sets its makespan.
tenant::JobSpec probe_job(int nodes, int iterations) {
  tenant::JobSpec j;
  j.name = "probe";
  j.kind = coll::CollKind::alltoall;
  j.algo = "auto";
  j.nodes = nodes;
  j.bytes = 65536;
  j.iterations = iterations;
  return j;
}

tenant::JobSpec cotenant_job(int index, int nodes, int iterations) {
  tenant::JobSpec j;
  j.name = "tenant" + std::to_string(index);
  j.kind = coll::CollKind::allreduce;
  j.algo = "ring";
  j.nodes = nodes;
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

// Per-point tenant results, committed by slot index so the post-run
// summary is independent of executor scheduling.
std::vector<tenant::TenantResult> result_slots;
std::atomic<std::size_t> next_slot{0};

// One bench cell: run the mix, record the full result and fold its perf,
// report the probe's slowdown (jobs[0] is always the probe).
double probe_slowdown(const net::ClusterConfig& cfg, int ppn,
                      const std::vector<tenant::JobSpec>& jobs,
                      const tenant::TenantOptions& opt, std::size_t slot,
                      core::PerfReport& perf) {
  const tenant::TenantResult r = tenant::run_tenants(cfg, ppn, jobs, opt);
  tenant::fold_perf(r, opt, perf);
  result_slots[slot] = r;
  return r.jobs.front().slowdown;
}

std::string load_row(double load) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "bg=%.1f", load);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const benchx::BenchFlags bf = benchx::strip_common_flags(argc, argv);
  const Config c = make_config(bf.smoke);

  tenant::TenantOptions base;
  base.seed = 1;
  base.stagger_max_us = 20.0;

  // Store 1: probe slowdown vs background (co-tenant) load, one co-tenant
  // job always present. Store 2: probe slowdown vs tenancy configuration.
  benchx::SeriesStore degradation;
  benchx::SeriesStore configs;

  // (label, jobs builder, bg load, fail) rows for the config store.
  struct ConfigRow {
    std::string label;
    int cotenants;
    double bg_load;
    bool fail;
  };
  std::vector<ConfigRow> rows;
  if (c.smoke) {
    rows = {{"1 job", 0, 0.0, false},
            {"2 jobs + bg=0.5 + fail", 1, 0.5, true}};
  } else {
    rows = {{"1 job", 0, 0.0, false},
            {"2 jobs", 1, 0.0, false},
            {"3 jobs", 2, 0.0, false},
            {"2 jobs + bg=0.5", 1, 0.5, false},
            {"2 jobs + bg=0.5 + fail", 1, 0.5, true}};
  }

  const std::size_t total_points =
      c.clusters.size() * (c.bg_loads.size() + rows.size());
  result_slots.assign(total_points, tenant::TenantResult{});

  for (const net::ClusterConfig& cfg : c.clusters) {
    const std::string col = "cluster " + cfg.name;
    for (double load : c.bg_loads) {
      const std::size_t slot = next_slot++;
      benchx::register_point(
          "multitenant/" + cfg.name + "/" + load_row(load), degradation,
          load_row(load), col,
          [&c, &cfg, load, slot](core::PerfReport& perf) {
            std::vector<tenant::JobSpec> jobs;
            jobs.push_back(probe_job(4, c.iterations));
            jobs.push_back(cotenant_job(1, 4, c.iterations));
            tenant::TenantOptions opt;
            opt.seed = 1;
            if (load > 0.0) opt.traffic = bg_traffic(load);
            return probe_slowdown(cfg, c.ppn, jobs, opt, slot, perf);
          });
    }
    for (const ConfigRow& row : rows) {
      const std::size_t slot = next_slot++;
      benchx::register_point(
          "multitenant/" + cfg.name + "/" + row.label, configs, row.label,
          col, [&c, &cfg, row, slot](core::PerfReport& perf) {
            // 3 jobs shrink to 2-node blocks so the mix fits 8 nodes.
            const int cot_nodes = row.cotenants > 1 ? 2 : 4;
            std::vector<tenant::JobSpec> jobs;
            jobs.push_back(probe_job(4, c.iterations));
            for (int i = 1; i <= row.cotenants; ++i) {
              jobs.push_back(cotenant_job(i, cot_nodes, c.iterations));
            }
            tenant::TenantOptions opt;
            opt.seed = 1;
            if (row.bg_load > 0.0) opt.traffic = bg_traffic(row.bg_load);
            if (row.fail) opt.failures = tenant::FailSpec::default_spec();
            return probe_slowdown(cfg, c.ppn, jobs, opt, slot, perf);
          });
    }
  }

  const int rc = benchx::run_benchmarks(argc, argv);

  std::cout << "\nMulti-tenant fabric study: 4-node alltoall probe (64KB "
               "blocks, ppn "
            << c.ppn << ") vs co-tenant pressure\n";
  degradation.print(
      "probe slowdown vs background load (shared / solo makespan, one "
      "co-tenant job present)",
      "bg load", 3);
  configs.print("probe slowdown vs tenancy configuration", "config", 3);

  std::uint64_t bg_total = 0;
  for (const tenant::TenantResult& r : result_slots) bg_total += r.bg_flows;
  std::cout << "\n" << result_slots.size() << " tenant mixes, "
            << bg_total << " background flows injected\n";
  return rc;
}
