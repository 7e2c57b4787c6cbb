// Shared infrastructure for the figure-reproduction benches.
//
// Every bench binary does two things:
//   1. registers benchmark points whose reported time is the *simulated*
//      latency (manual time, one deterministic iteration), and
//   2. after the run, prints the paper-figure table (rows = message sizes,
//      columns = configurations) plus a CSV block.
//
// Points are registered lazily: run_benchmarks() first evaluates every
// pending point through the deterministic sweep executor (--jobs N /
// DPML_JOBS fan the fully independent simulations across host threads;
// values land in pre-sized slots, so the tables are byte-identical to a
// serial run), then hands google-benchmark entries that simply report the
// precomputed values. A host-side perf summary (points, jobs, wall time,
// aggregate simulated events/sec) is printed after the figure tables.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/measure.hpp"
#include "core/tuner.hpp"
#include "util/table.hpp"

namespace dpml::benchx {

// The paper's microbenchmark x-axis: 4B .. 1MB in 4x steps.
inline std::vector<std::size_t> paper_sizes() {
  return {4,     16,    64,     256,    1024,   4096,
          16384, 65536, 262144, 524288, 1048576};
}

inline core::MeasureOptions default_opts() {
  core::MeasureOptions o;
  o.iterations = 3;
  o.warmup = 1;
  return o;
}

// Ordered (row x column) -> value store filled during benchmark execution.
class SeriesStore {
 public:
  void put(const std::string& row, const std::string& col, double v) {
    if (values_.emplace(std::make_pair(row, col), v).second) {
      if (row_index_.emplace(row, rows_.size()).second) rows_.push_back(row);
      if (col_index_.emplace(col, cols_.size()).second) cols_.push_back(col);
    } else {
      values_[std::make_pair(row, col)] = v;
    }
  }

  bool empty() const { return values_.empty(); }

  double at(const std::string& row, const std::string& col) const {
    return values_.at(std::make_pair(row, col));
  }

  // Aligned table plus CSV, both to stdout.
  void print(const std::string& title, const std::string& row_header,
             int precision = 2) const {
    std::vector<std::string> header{row_header};
    header.insert(header.end(), cols_.begin(), cols_.end());
    util::Table t(header);
    for (const auto& row : rows_) {
      t.row().cell(row);
      for (const auto& col : cols_) {
        auto it = values_.find(std::make_pair(row, col));
        if (it == values_.end()) {
          t.cell(std::string("-"));
        } else {
          t.cell(it->second, precision);
        }
      }
    }
    std::cout << "\n## " << title << "\n\n";
    t.print(std::cout);
    std::cout << "\n### CSV\n";
    t.print_csv(std::cout);
  }

 private:
  std::map<std::pair<std::string, std::string>, double> values_;
  std::vector<std::string> rows_;
  std::vector<std::string> cols_;
  std::map<std::string, std::size_t> row_index_;
  std::map<std::string, std::size_t> col_index_;
};

// Flags shared by every bench driver but unknown to google-benchmark.
// strip_common_flags removes them from argv before Initialize sees them:
//   --smoke        tiny CI shape (driver-interpreted)
//   --jobs N       sweep-executor width (also --jobs=N; sets the process
//                  default, so every measure() call fans its reps out too)
struct BenchFlags {
  bool smoke = false;
};

inline BenchFlags strip_common_flags(int& argc, char** argv) {
  BenchFlags flags;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      flags.smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      core::set_default_jobs(std::atoi(argv[++i]));
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      core::set_default_jobs(std::atoi(argv[i] + 7));
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;
  return flags;
}

// A benchmark point waiting for the executor pass in run_benchmarks().
struct PendingPoint {
  std::string name;
  SeriesStore* store;
  std::string row;
  std::string col;
  std::function<double()> fn;
};

inline std::vector<PendingPoint>& pending_points() {
  static std::vector<PendingPoint> points;
  return points;
}

// Fold one point's deterministic perf counters and wall time into a
// total: sums, except the peaks, which are maxima over points.
inline void fold_perf(core::MeasurePerf& t, const core::MeasurePerf& p) {
  t.events += p.events;
  t.resumes += p.resumes;
  t.callbacks += p.callbacks;
  t.instants += p.instants;
  t.peak_instants = std::max(t.peak_instants, p.peak_instants);
  t.peak_live_events = std::max(t.peak_live_events, p.peak_live_events);
  t.peak_queue_depth = std::max(t.peak_queue_depth, p.peak_queue_depth);
  t.peak_rss_kb = std::max(t.peak_rss_kb, p.peak_rss_kb);
  t.elided_bytes += p.elided_bytes;
  t.wall_ms += p.wall_ms;
}

// Counters of every point measured through the helpers below, for the
// perf summary line.
inline core::MeasurePerf& perf_totals() {
  static core::MeasurePerf totals;
  return totals;
}

// Guards perf_totals(): points run concurrently.
inline std::mutex& perf_totals_mutex() {
  static std::mutex m;
  return m;
}

inline void note_measure_perf(const core::MeasureResult& r) {
  const std::lock_guard<std::mutex> lock(perf_totals_mutex());
  fold_perf(perf_totals(), r.perf);
}

// Register a single-iteration manual-time benchmark point that evaluates
// `fn` (microseconds of simulated time) and records it in `store`.
// Evaluation is deferred to run_benchmarks(), which fans all pending points
// across the sweep executor before google-benchmark reports them.
inline void register_point(const std::string& name, SeriesStore& store,
                           const std::string& row, const std::string& col,
                           std::function<double()> fn) {
  pending_points().push_back({name, &store, row, col, std::move(fn)});
}

// Convenience: latency of one allreduce spec (microseconds).
inline double latency_us(const net::ClusterConfig& cfg, int nodes, int ppn,
                         std::size_t bytes, const coll::CollSpec& spec) {
  const core::MeasureResult r = core::measure_collective(
      coll::CollKind::allreduce, cfg, nodes, ppn, bytes, spec, default_opts());
  note_measure_perf(r);
  return r.avg_us;
}

// Write the aggregate of per-point perf results as the JSON snapshot format
// diffed by scripts/perf_delta.py (entries of BENCH_perf.json).
inline bool write_perf_json(const std::string& path, const std::string& tool,
                            const std::vector<core::MeasurePerf>& slots,
                            int points) {
  core::MeasurePerf sum;
  double cb_hits = 0.0, pl_hits = 0.0;
  for (const core::MeasurePerf& p : slots) {
    fold_perf(sum, p);
    cb_hits += p.callback_pool_hit_rate;
    pl_hits += p.payload_pool_hit_rate;
  }
  const double n = slots.empty() ? 1.0 : static_cast<double>(slots.size());
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n"
     << "  \"tool\": \"" << tool << "\",\n"
     << "  \"points\": " << points << ",\n"
     << "  \"jobs\": " << core::default_jobs() << ",\n"
     << "  \"events\": " << sum.events << ",\n"
     << "  \"events_per_sec\": "
     << (sum.wall_ms > 0.0
             ? static_cast<long long>(static_cast<double>(sum.events) /
                                      (sum.wall_ms / 1e3))
             : 0)
     << ",\n"
     << "  \"resumes\": " << sum.resumes << ",\n"
     << "  \"callbacks\": " << sum.callbacks << ",\n"
     << "  \"instants\": " << sum.instants << ",\n"
     << "  \"peak_instants\": " << sum.peak_instants << ",\n"
     << "  \"peak_live_events\": " << sum.peak_live_events << ",\n"
     << "  \"peak_queue_depth\": " << sum.peak_queue_depth << ",\n"
     << "  \"peak_rss_kb\": " << sum.peak_rss_kb << ",\n"
     << "  \"elided_bytes\": " << sum.elided_bytes << ",\n"
     << "  \"callback_pool_hit_rate\": " << cb_hits / n << ",\n"
     << "  \"payload_pool_hit_rate\": " << pl_hits / n << ",\n"
     << "  \"wall_ms\": " << sum.wall_ms << "\n"
     << "}\n";
  return true;
}

inline int run_benchmarks(int argc, char** argv) {
  // Drivers that interpret --smoke strip it themselves (idempotent); this
  // catches --jobs for the drivers that pass argv straight through.
  strip_common_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  // Evaluate every pending point through the sweep executor: each point is
  // an independent deterministic simulation committed into its own slot, so
  // the values (and every table built from them) are byte-identical to the
  // serial order for any --jobs width.
  std::vector<PendingPoint>& points = pending_points();
  const core::Executor executor;
  perf_totals() = core::MeasurePerf{};
  // Host-side wall clock for the events/sec perf line, not simulated time.
  const auto wall_start =
      std::chrono::steady_clock::now();  // dpmllint: allow(wall-clock)
  const std::vector<double> values = executor.map<double>(
      points.size(), [&](std::size_t i) { return points[i].fn(); });
  const auto wall_end =
      std::chrono::steady_clock::now();  // dpmllint: allow(wall-clock)
  const double wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();

  for (std::size_t i = 0; i < points.size(); ++i) {
    PendingPoint& p = points[i];
    p.store->put(p.row, p.col, values[i]);
    const double us = values[i];
    benchmark::RegisterBenchmark(p.name.c_str(),
                                 [us](benchmark::State& st) {
                                   for (auto _ : st) {
                                     st.SetIterationTime(us * 1e-6);
                                   }
                                 })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::cout << "\n[perf] " << points.size() << " points, jobs="
            << executor.jobs() << ", wall " << wall_s << " s";
  const core::MeasurePerf& t = perf_totals();
  if (t.events > 0 && wall_s > 0.0) {
    std::cout << ", " << t.events << " simulated events ("
              << (static_cast<double>(t.events) / wall_s) / 1e6 << " Mev/s; "
              << t.resumes << " resumes, " << t.callbacks << " callbacks), "
              << t.instants << " instants (peak " << t.peak_instants << ")";
  }
  if (t.peak_queue_depth > 0) {
    std::cout << ", peak queue depth " << t.peak_queue_depth;
  }
  std::cout << ", peak RSS " << sim::peak_rss_kb() << " KB";
  std::cout << "\n";
  points.clear();
  return 0;
}

}  // namespace dpml::benchx
