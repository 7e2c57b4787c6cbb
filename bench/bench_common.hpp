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
// precomputed values. Each point folds what it measured into its own
// core::PerfReport; run_benchmarks folds those in point order, prints the
// [perf] line and writes the --perf-json snapshot.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "core/measure.hpp"
#include "core/tuner.hpp"
#include "util/error.hpp"
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
//   --smoke           tiny CI shape (driver-interpreted)
//   --jobs N          sweep-executor width, an integer >= 1 (sets the
//                     process default, so every measure() call fans its
//                     reps out too)
//   --perf-json FILE  write the sweep's core::PerfReport snapshot
// Each also takes the --flag=value form. A bad --jobs or a --perf-json
// without a file is a one-line error naming the flag (exit 1). The flags
// read stay read: run_benchmarks strips again and sees the driver's.
struct BenchFlags {
  bool smoke = false;
  std::string perf_json;
};

inline BenchFlags strip_common_flags(int& argc, char** argv) {
  static BenchFlags flags;
  int keep = 1;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      // "--flag=value", or "--flag value" unless the next token is a flag.
      const auto value = [&](const std::string& flag) -> std::string {
        if (a.size() > flag.size()) return a.substr(flag.size() + 1);
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          return argv[++i];
        }
        return "";
      };
      if (a == "--smoke") {
        flags.smoke = true;
      } else if (a == "--jobs" || a.rfind("--jobs=", 0) == 0) {
        core::set_default_jobs(core::parse_jobs(value("--jobs")));
      } else if (a == "--perf-json" || a.rfind("--perf-json=", 0) == 0) {
        flags.perf_json = value("--perf-json");
        if (flags.perf_json.empty()) {
          throw util::InvariantError("--perf-json needs a file path");
        }
      } else {
        argv[keep++] = argv[i];
      }
    }
  } catch (const util::InvariantError& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    std::exit(1);
  }
  argc = keep;
  return flags;
}

// A benchmark point waiting for the executor pass in run_benchmarks(): `fn`
// returns the point's value and folds what it measured into its report.
struct PendingPoint {
  std::string name;
  SeriesStore* store;
  std::string row;
  std::string col;
  std::function<double(core::PerfReport&)> fn;
};

inline std::vector<PendingPoint>& pending_points() {
  static std::vector<PendingPoint> points;
  return points;
}

// Register a single-iteration manual-time benchmark point that evaluates
// `fn` (microseconds of simulated time) and records it in `store`.
// Evaluation is deferred to run_benchmarks(), which fans all pending points
// across the sweep executor before google-benchmark reports them.
inline void register_point(const std::string& name, SeriesStore& store,
                           const std::string& row, const std::string& col,
                           std::function<double(core::PerfReport&)> fn) {
  pending_points().push_back({name, &store, row, col, std::move(fn)});
}

// Measure one point, fold it into `perf` and return its latency (us).
inline double measure_us(core::CollKind kind, const net::ClusterConfig& cfg,
                         int nodes, int ppn, std::size_t bytes,
                         const coll::CollSpec& spec,
                         const core::MeasureOptions& opt,
                         core::PerfReport& perf) {
  const core::MeasureResult r =
      core::measure_collective(kind, cfg, nodes, ppn, bytes, spec, opt);
  perf.add(r);
  return r.avg_us;
}

// Convenience: latency of one allreduce spec (microseconds).
inline double latency_us(const net::ClusterConfig& cfg, int nodes, int ppn,
                         std::size_t bytes, const coll::CollSpec& spec,
                         core::PerfReport& perf) {
  return measure_us(coll::CollKind::allreduce, cfg, nodes, ppn, bytes, spec,
                    default_opts(), perf);
}

// Evaluates every registered point, reports them to google-benchmark, then
// prints the sweep's [perf] line and writes --perf-json (tool: the binary's
// name; `tags` follow it, see core::PerfReport::json). Returns 1 when the
// arguments or the snapshot file are bad.
inline int run_benchmarks(
    int argc, char** argv,
    const std::vector<std::pair<std::string, std::string>>& tags = {}) {
  // Drivers that interpret --smoke strip it themselves; this catches the
  // common flags for the drivers that pass argv straight through.
  const BenchFlags flags = strip_common_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  // Evaluate every pending point through the sweep executor: each point is
  // an independent deterministic simulation committed into its own value
  // and report slots, so the values (and every table built from them) and
  // the reports folded in point order are byte-identical to the serial
  // order for any --jobs width.
  std::vector<PendingPoint>& points = pending_points();
  const core::Executor executor;
  std::vector<core::PerfReport> reports(points.size());
  std::vector<double> values;
  core::PerfReport report;
  report.time_sweep([&] {
    values = executor.map<double>(points.size(), [&](std::size_t i) {
      return points[i].fn(reports[i]);
    });
  });
  for (const core::PerfReport& r : reports) report.add(r);

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
  points.clear();

  std::cout << "\n" << report.line() << "\n";
  if (flags.perf_json.empty()) return 0;
  const std::string program = argv[0];
  std::ofstream os(flags.perf_json);
  os << report.json(program.substr(program.rfind('/') + 1), tags);
  if (!os) {
    std::cerr << "cannot write perf json " << flags.perf_json << "\n";
    return 1;
  }
  std::cout << "perf counters written to " << flags.perf_json << "\n";
  return 0;
}

}  // namespace dpml::benchx
