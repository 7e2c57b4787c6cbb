#include "apps/osu.hpp"

#include <algorithm>
#include <string>

#include "apps/program.hpp"
#include "core/measure.hpp"
#include "util/error.hpp"

namespace dpml::apps {

MbwMrResult osu_mbw_mr(const net::ClusterConfig& cfg, const MbwMrOptions& opt) {
  // Intra-node pairs take two cores of the one node, inter-node pairs one
  // core on each of two nodes.
  const int max_pairs = opt.intra_node ? cfg.max_ppn() / 2 : cfg.max_ppn();
  require(opt.pairs >= 1 && opt.pairs <= max_pairs, "osu_mbw_mr", "pairs",
          "in [1, " + std::to_string(max_pairs) + "] on cluster " + cfg.name,
          opt.pairs);
  require(opt.window >= 1, "osu_mbw_mr", "window", ">= 1", opt.window);
  require(opt.iterations >= 1, "osu_mbw_mr", "iterations", ">= 1",
          opt.iterations);
  const int nodes = opt.intra_node ? 1 : 2;
  const int ppn = opt.intra_node ? 2 * opt.pairs : opt.pairs;
  const int total_msgs = opt.window * opt.iterations;

  // Rank i < pairs sends to rank i + pairs: local i to local i + pairs on
  // one node, or local i of node 0 to local i of node 1.
  std::vector<Program> programs;
  for (int w = 0; w < 2 * opt.pairs; ++w) {
    const bool sender = w < opt.pairs;
    programs.emplace_back(static_cast<std::size_t>(total_msgs),
                          Op{.kind = sender ? Op::Kind::send : Op::Kind::recv,
                             .peer = sender ? w + opt.pairs : w - opt.pairs,
                             .count = opt.bytes});
  }
  const auto run = run_program(cfg, nodes, ppn, {}, 1, programs, 0);

  MbwMrResult res;
  res.engine_perf = run.engine_perf;
  res.elided_bytes = run.elided_bytes;
  res.seconds = sim::to_seconds(run.end);
  const double total_bytes = static_cast<double>(opt.bytes) * total_msgs *
                             opt.pairs;
  res.mb_per_s = total_bytes / res.seconds / 1e6;
  res.msg_per_s = static_cast<double>(total_msgs) * opt.pairs / res.seconds;
  return res;
}

double osu_latency(const net::ClusterConfig& cfg, std::size_t bytes,
                   bool intra_node, int iterations) {
  require(iterations >= 1, "osu_latency", "iterations", ">= 1", iterations);
  using K = Op::Kind;
  // Ranks 0 and 1 pingpong; intra-node they sit on the same socket (locals
  // 0 and 1 at ppn >= 4), and any other rank idles.
  const int nodes = intra_node ? 1 : 2;
  const int ppn = intra_node ? std::min(4, cfg.max_ppn()) : 1;
  DPML_CHECK_MSG(!intra_node || ppn >= 2,
                 "osu_latency: an intra-node pingpong needs 2 cores a node");
  std::vector<Program> programs(static_cast<std::size_t>(nodes * ppn));
  for (int i = 0; i < iterations; ++i) {
    programs[0].push_back({.kind = K::send, .peer = 1, .count = bytes});
    programs[0].push_back(
        {.kind = K::recv, .peer = 1, .tag = 1, .count = bytes});
    programs[1].push_back({.kind = K::recv, .peer = 0, .count = bytes});
    programs[1].push_back(
        {.kind = K::send, .peer = 0, .tag = 1, .count = bytes});
  }
  const auto run = run_program(cfg, nodes, ppn, {}, 1, programs, 0);
  return sim::to_seconds(run.end) / (2.0 * iterations);
}

double relative_throughput(const net::ClusterConfig& cfg, int pairs,
                           std::size_t bytes, bool intra_node,
                           core::PerfReport* perf) {
  MbwMrOptions one;
  one.pairs = 1;
  one.bytes = bytes;
  one.intra_node = intra_node;
  MbwMrOptions many = one;
  many.pairs = pairs;
  const MbwMrResult base = osu_mbw_mr(cfg, one);
  const MbwMrResult loaded = osu_mbw_mr(cfg, many);
  if (perf != nullptr) {
    sim::EnginePerf engine = base.engine_perf;
    engine.merge(loaded.engine_perf);
    perf->add(engine, base.elided_bytes + loaded.elided_bytes);
  }
  return loaded.mb_per_s / base.mb_per_s;
}

}  // namespace dpml::apps
