#include "model/fit.hpp"

#include <algorithm>
#include <vector>

#include "apps/osu.hpp"
#include "apps/program.hpp"
#include "util/error.hpp"

namespace dpml::model {

namespace {

// Per-byte streaming cost: back-to-back sends of a large message between
// the two ranks apps::osu_latency pingpongs.
double p2p_per_byte(const net::ClusterConfig& cfg, std::size_t bytes,
                    bool intra_node, int msgs = 8) {
  const int nodes = intra_node ? 1 : 2;
  const int ppn = intra_node ? std::min(4, cfg.max_ppn()) : 1;
  std::vector<apps::Program> programs(static_cast<std::size_t>(nodes * ppn));
  programs[0].assign(static_cast<std::size_t>(msgs),
                     {.kind = apps::Op::Kind::send, .peer = 1, .count = bytes});
  programs[1].assign(static_cast<std::size_t>(msgs),
                     {.kind = apps::Op::Kind::recv, .peer = 0, .count = bytes});
  const auto run = apps::run_program(cfg, nodes, ppn, {}, 1, programs, 0);
  return sim::to_seconds(run.end) / (static_cast<double>(bytes) * msgs);
}

// Wall time for `pairs` concurrent cross-leaf streams under the flow
// fabric. Senders live under leaf 0, receivers under leaf 1 (ppn = 1, so
// world rank == node id); all pair flows share leaf 0's core uplink pool.
double cross_leaf_time(const net::ClusterConfig& cfg, std::size_t bytes,
                       int nodes, int npl, int pairs) {
  std::vector<apps::Program> programs(static_cast<std::size_t>(nodes));
  for (int w = 0; w < pairs; ++w) {
    programs[static_cast<std::size_t>(w)] = {
        {.kind = apps::Op::Kind::send, .peer = npl + w, .count = bytes}};
    programs[static_cast<std::size_t>(npl + w)] = {
        {.kind = apps::Op::Kind::recv, .peer = w, .count = bytes}};
  }
  const auto run = apps::run_program(cfg, nodes, 1, {}, 1, programs, 0,
                                     fabric::FabricLevel::links);
  return sim::to_seconds(run.end);
}

// Reduction cost per byte measured through Rank::reduce_compute.
double reduce_per_byte(const net::ClusterConfig& cfg, std::size_t bytes) {
  const std::vector<apps::Program> programs = {
      {{.kind = apps::Op::Kind::reduce_compute, .count = bytes}}};
  const auto run = apps::run_program(cfg, 1, 1, {}, 1, programs, 0);
  return sim::to_seconds(run.end) / static_cast<double>(bytes);
}

}  // namespace

FittedParams fit_from_simulation(const net::ClusterConfig& cfg,
                                 std::size_t probe_bytes) {
  DPML_CHECK(probe_bytes >= 4096);
  FittedParams f;
  // Small-message pingpong gives the startup term directly.
  f.a = apps::osu_latency(cfg, 1, /*intra_node=*/false, 8);
  // Large-message streaming isolates the per-byte term (startup amortized).
  const double large = p2p_per_byte(cfg, probe_bytes, false);
  const double small = p2p_per_byte(cfg, 4096, false);
  f.b = std::min(large, small);
  // Shared memory: same two measurements within a node.
  f.a2 = apps::osu_latency(cfg, 1, /*intra_node=*/true, 8);
  f.b2 = p2p_per_byte(cfg, probe_bytes, true);
  f.c = reduce_per_byte(cfg, probe_bytes);
  return f;
}

Params fitted_params(const net::ClusterConfig& cfg, int nodes, int ppn,
                     int leaders, std::size_t bytes, int k) {
  const FittedParams f = fit_from_simulation(cfg);
  Params m;
  m.p = nodes * ppn;
  m.h = nodes;
  m.l = leaders;
  m.n = static_cast<double>(bytes);
  m.k = k;
  m.a = f.a;
  m.b = f.b;
  m.a2 = f.a2;
  m.b2 = f.b2;
  m.c = f.c;
  return m;
}

double fit_oversub_factor(const net::ClusterConfig& cfg, std::size_t bytes) {
  const int npl = cfg.nodes_per_leaf;
  if (npl < 1 || cfg.total_nodes <= npl || cfg.oversubscription <= 1.0) {
    return 1.0;
  }
  const int nodes = std::min(cfg.total_nodes, 2 * npl);
  const int pairs = std::min(npl, nodes - npl);
  DPML_CHECK(pairs >= 1);
  // Baseline: the same streaming pattern on a non-blocking build of the same
  // cluster. The ratio isolates what the thinner core costs those flows.
  net::ClusterConfig nonblocking = cfg;
  nonblocking.oversubscription = 1.0;
  const double ideal = cross_leaf_time(nonblocking, bytes, nodes, npl, pairs);
  if (ideal <= 0.0) return 1.0;
  const double actual = cross_leaf_time(cfg, bytes, nodes, npl, pairs);
  return std::max(1.0, actual / ideal);
}

}  // namespace dpml::model
