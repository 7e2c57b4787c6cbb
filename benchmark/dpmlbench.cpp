// dpmlbench: the repository benchmark.
//
//   dpmlbench --workload W [--seed S] [--seconds T] [--trace FILE] [--smoke]
//
// One process runs one workload as a closed batch on one host thread: the
// workload's points run one at a time, in a fixed order, and the whole list
// (a "pass") repeats until T seconds have elapsed, at least kMinPasses
// times. Every layer is timed from outside, around calls into the public
// entry points core::measure_collective, tenant::run_tenants,
// simmpi::Machine, core::run_collective, fabric::FlowFabric and
// model::t_dpml; nothing in src/ is instrumented.
//
// The last line of stdout is one JSON object: correct / attempted / failed
// plus the end-to-end metrics, and with --trace the per-layer metrics too.
// --trace FILE also writes the bench's spans as Chrome-trace JSON.
//
// Each point's host time is the median over passes, and host_s sums those
// medians. Simulated results are deterministic, so every pass must
// reproduce the first bit for bit; a point that does not counts as failed,
// as does one that throws or fails data verification.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "coll/registry.hpp"
#include "core/api.hpp"
#include "core/measure.hpp"
#include "fabric/fabric.hpp"
#include "model/model.hpp"
#include "net/cluster.hpp"
#include "sharp/sharp.hpp"
#include "sim/engine.hpp"
#include "simmpi/machine.hpp"
#include "tenant/tenant.hpp"
#include "util/rng.hpp"

namespace {

using namespace dpml;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Host speed. The host this benchmark shares with other work changes speed
// by tens of percent over minutes, which would swamp the differences the
// benchmark exists to show. A fixed reference kernel, sampled before and
// after every timed call, measures the host's current speed, and each
// call's host seconds are scaled by kReferenceSeconds over the mean of the
// two samples: host times read as on a host where the kernel takes
// kReferenceSeconds. The kernel is the benchmark's own code, so no change to
// src/ can move it. It mimics the simulator's hot loop: a binary event heap
// with push/pop churn plus random reads and writes over 8 MB.

// Median kernel time on the 4-core Xeon VM the baselines were recorded on.
constexpr double kReferenceSeconds = 0.00086;

class SpeedProbe {
 public:
  SpeedProbe() : arena_(kArenaWords, 1) { heap_.reserve(kHeapCap + 1); }

  // Seconds the kernel takes now. The first, untimed run absorbs what the
  // preceding call left behind (cold caches, a slow first pass right after
  // a large teardown), so the timed run reads the host, not that call.
  double sample() {
    kernel();
    return kernel();
  }

  std::uint64_t sink() const { return sink_; }

 private:
  double kernel() {
    const Clock::time_point t0 = Clock::now();
    heap_.clear();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap_.emplace_back(acc + (x & 1023), i);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      if (heap_.size() > kHeapCap) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        acc += heap_.back().first & 7;
        heap_.pop_back();
      }
      acc += arena_[(x >> 23) & (kArenaWords - 1)];
      arena_[(x >> 37) & (kArenaWords - 1)] = acc;
    }
    const double dt = seconds_since(t0);
    sink_ += acc;
    return dt;
  }

  static constexpr std::size_t kHeapCap = 4096;
  static constexpr std::size_t kArenaWords = std::size_t{1} << 20;
  static constexpr std::uint64_t kSteps = 15000;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> heap_;
  std::vector<std::uint64_t> arena_;
  std::uint64_t sink_ = 0;  // printed at exit so the loop cannot be elided
};

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent of every public-layer call the bench
// makes, kept in memory and written as Chrome-trace JSON at exit.

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* t, int idx) : t_(t), idx_(idx) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->close(idx_);
    }

   private:
    Tracer* t_;
    int idx_;
  };

  void set_recording(bool on) { recording_ = on; }

  // `point` names the workload point a span belongs to (Chrome-trace args).
  Scope span(std::string name, const char* cat, std::string point = {}) {
    if (!recording_) return Scope{nullptr, -1};
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), cat, std::move(point), now_us(), 0.0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(idx);
    return Scope{this, idx};
  }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%zu,\"parent\":%d",
                    s.start_us, s.end_us - s.start_us, i, s.parent);
      os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
         << "\",\"cat\":\"" << s.cat << "\"," << buf;
      if (!s.point.empty()) os << ",\"point\":\"" << s.point << '"';
      os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Span {
    std::string name;
    const char* cat;
    std::string point;
    double start_us;
    double end_us;
    int parent;
  };

  double now_us() const { return seconds_since(origin_) * 1e6; }

  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end_us = now_us();
    open_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  bool recording_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct MeasurePoint {
  coll::CollKind kind = coll::CollKind::allreduce;
  net::ClusterConfig cfg;
  int nodes = 1;
  int ppn = 1;
  std::size_t bytes = 0;
  coll::CollSpec spec;
  core::MeasureOptions opt;
};

struct TenantMix {
  net::ClusterConfig cfg;
  int ppn = 1;
  std::vector<tenant::JobSpec> jobs;
  tenant::TenantOptions opt;
};

using Unit = std::variant<MeasurePoint, TenantMix>;

struct Workload {
  std::string name;
  std::vector<Unit> units;
};

std::string unit_label(const Unit& u) {
  if (const auto* p = std::get_if<MeasurePoint>(&u)) {
    return std::string(coll::coll_kind_name(p->kind)) + "/" +
           p->spec.label(p->kind) + "/" + p->cfg.name + "/" +
           std::to_string(p->nodes) + "x" + std::to_string(p->ppn) + "/" +
           std::to_string(p->bytes) + "B";
  }
  const auto& m = std::get<TenantMix>(u);
  return "tenants/" + m.cfg.name + "/" + std::to_string(m.jobs.size()) +
         "jobs/seed=" + std::to_string(m.opt.seed);
}

// Whether measure_collective attaches a SharpFabric for this point.
bool uses_sharp(const MeasurePoint& p) {
  const coll::CollDescriptor& d =
      coll::CollRegistry::instance().at(p.kind, p.spec.algo);
  return (d.caps.needs_fabric || p.spec.algo == "dpml-auto") &&
         p.cfg.has_sharp();
}

// Every point runs on one host thread, whatever DPML_JOBS says, so that
// host time and peak RSS belong to one closed batch.
core::MeasureOptions base_opts() {
  core::MeasureOptions o;
  o.jobs = 1;
  o.warmup = 0;
  o.iterations = 1;
  return o;
}

coll::CollSpec spec(const std::string& algo, int leaders = 1, int k = 1) {
  coll::CollSpec s;
  s.algo = algo;
  s.leaders = leaders;
  s.pipeline_k = k;
  return s;
}

// The paper's Fig. 5/9 shape: allreduce latency of every leader count and
// the library baselines across the paper's size axis on cluster B. Ring is
// left out: at 1,792 ranks it alone costs minutes of host time.
Workload paper_allreduce(bool smoke) {
  const net::ClusterConfig cfg = net::cluster_b();
  const int nodes = smoke ? 4 : 64;
  const int ppn = smoke ? 4 : 28;
  std::vector<std::size_t> sizes = {4,     16,    64,     256,    1024,   4096,
                                    16384, 65536, 262144, 524288, 1048576};
  if (smoke) sizes = {64, 524288, 1048576};
  std::vector<coll::CollSpec> designs;
  for (int l : {1, 2, 4, 8, 16}) designs.push_back(spec("dpml", l));
  designs.push_back(spec("dpml", 16, 4));
  for (const char* a : {"single-leader", "mvapich2", "intelmpi", "rd", "rsa"}) {
    designs.push_back(spec(a));
  }
  // The figure benches' OSU-style loop: one warm-up, three timed iterations.
  core::MeasureOptions opt = base_opts();
  opt.warmup = 1;
  opt.iterations = 3;
  Workload w{"paper_allreduce", {}};
  for (std::size_t bytes : sizes) {
    for (const coll::CollSpec& s : designs) {
      w.units.push_back(MeasurePoint{coll::CollKind::allreduce, cfg, nodes,
                                     ppn, bytes, s, opt});
    }
  }
  return w;
}

// Large scale on the time-only plane with the calendar queue: engine-bound
// with a deep event backlog and the largest Machine set-up.
Workload xscale_timeonly(bool smoke) {
  core::MeasureOptions opt = base_opts();
  opt.data_mode = sim::DataMode::timeonly;
  const int wide = smoke ? 256 : 8192;
  const int b_nodes = smoke ? 8 : 256;
  const int d_nodes = smoke ? 8 : 128;
  Workload w{"xscale_timeonly", {}};
  for (const net::ClusterConfig& base : {net::cluster_b(), net::cluster_d()}) {
    w.units.push_back(MeasurePoint{coll::CollKind::allreduce,
                                   net::with_nodes(base, wide), wide, 1, 16384,
                                   spec("dpml-auto"), opt});
  }
  w.units.push_back(MeasurePoint{
      coll::CollKind::allreduce, net::with_nodes(net::cluster_b(), b_nodes),
      b_nodes, smoke ? 4 : 28, 1048576, spec("dpml", 8), opt});
  w.units.push_back(MeasurePoint{
      coll::CollKind::allreduce, net::with_nodes(net::cluster_d(), d_nodes),
      d_nodes, smoke ? 4 : 68, 1048576, spec("dpml", 8), opt});
  return w;
}

// Concurrent jobs on one max-min fabric under background traffic, an ECMP
// way failure and adaptive re-planning. The seed drives the start stagger
// and the background flows. Re-planning makes one mix's host cost swing by
// several percent from seed to seed, so a pass runs sixteen independently
// seeded mixes and the swings average out.
Workload tenant_contention(bool smoke, std::uint64_t seed) {
  static const char* kAlgos[] = {"ring", "rd", "rsa", "cring"};
  const int mixes = smoke ? 1 : 16;
  Workload w{"tenant_contention", {}};
  for (int i = 0; i < mixes; ++i) {
    TenantMix m;
    m.cfg = net::cluster_d();
    m.ppn = 2;
    for (int j = 0; j < 4; ++j) {
      tenant::JobSpec js;
      js.name = "job" + std::to_string(j);
      js.algo = kAlgos[j];
      js.leaders = js.algo == "cring" ? 2 : 1;
      js.nodes = smoke ? 2 : 4;
      js.bytes = j % 2 == 0 ? 1048576 : 262144;
      js.iterations = 2;
      m.jobs.push_back(js);
    }
    const std::uint64_t mix_seed =
        util::SplitMix64(seed, static_cast<std::uint64_t>(i)).next_u64();
    tenant::TenantOptions& o = m.opt;
    o.seed = mix_seed;
    o.jobs = 1;
    o.data_mode = sim::DataMode::timeonly;
    o.placement = tenant::Placement::round_robin;
    o.adapt = true;
    o.traffic.matrix = tenant::Matrix::uniform;
    o.traffic.load = 0.3;
    o.traffic.bytes = 262144;
    o.traffic.seed = mix_seed;
    // One core way only: failing a second way on D partitions a leaf.
    tenant::FailSpec::Event e;
    e.way = 0;
    e.at_us = 200.0;
    e.recover_us = 2000.0;
    o.failures.events.push_back(e);
    w.units.push_back(std::move(m));
  }
  return w;
}

// Every registered algorithm of every kind with real payload, strict
// semantics checking and the link fabric: the only workload that verifies
// data. SHArP designs are limited to small payloads; 17 KB is above the
// rendezvous threshold.
Workload verified_kinds(bool smoke, std::uint64_t seed) {
  core::MeasureOptions opt = base_opts();
  opt.iterations = 2;
  opt.with_data = true;
  opt.seed = seed;
  opt.check = check::CheckLevel::strict;
  opt.fabric = fabric::FabricLevel::links;
  const int ppn = smoke ? 2 : 8;
  Workload w{"verified_kinds", {}};
  std::vector<std::size_t> sizes = {64, 17408};
  if (smoke) sizes.pop_back();
  for (std::size_t bytes : sizes) {
    for (coll::CollKind kind : coll::kAllCollKinds) {
      for (const coll::CollDescriptor* d :
           coll::CollRegistry::instance().list(kind)) {
        if (d->caps.needs_fabric && bytes > 64) continue;
        w.units.push_back(MeasurePoint{kind, net::cluster_a(), smoke ? 2 : 4,
                                       ppn, bytes, spec(d->name, 4), opt});
      }
    }
  }
  return w;
}

const char* const kWorkloads[] = {"paper_allreduce", "xscale_timeonly",
                                  "tenant_contention", "verified_kinds"};

Workload make_workload(const std::string& name, bool smoke,
                       std::uint64_t seed) {
  if (name == "paper_allreduce") return paper_allreduce(smoke);
  if (name == "xscale_timeonly") return xscale_timeonly(smoke);
  if (name == "tenant_contention") return tenant_contention(smoke, seed);
  if (name == "verified_kinds") return verified_kinds(smoke, seed);
  std::string known;
  for (const char* w : kWorkloads) known += std::string(" ") + w;
  throw std::invalid_argument("unknown workload '" + name + "'; known:" +
                              known);
}

// ---------------------------------------------------------------------------
// Running one unit.

struct Outcome {
  std::vector<double> sim_us;  // point latency, or every job's makespan
  bool verified = true;
  std::uint64_t events = 0;
  std::optional<core::MeasureResult> measure;
  std::optional<tenant::TenantResult> tenant;
};

Outcome run_unit(const Unit& u, Tracer& tr) {
  Outcome out;
  if (const auto* p = std::get_if<MeasurePoint>(&u)) {
    const auto s = tr.span("core.measure_collective", "core", unit_label(u));
    core::MeasureResult r = core::measure_collective(
        p->kind, p->cfg, p->nodes, p->ppn, p->bytes, p->spec, p->opt);
    out.sim_us = {r.avg_us};
    out.verified = r.verified;
    out.events = r.events;
    out.measure = std::move(r);
    return out;
  }
  const auto& m = std::get<TenantMix>(u);
  const auto s = tr.span("tenant.run_tenants", "tenant", unit_label(u));
  tenant::TenantResult r = tenant::run_tenants(m.cfg, m.ppn, m.jobs, m.opt);
  for (const tenant::JobStats& j : r.jobs) {
    out.sim_us.push_back(j.makespan_us);
    out.verified = out.verified && j.makespan_us > 0.0;
  }
  // The allocator's conservation invariant: no link above its capacity.
  out.verified = out.verified && r.peak_link_util <= 1.0 + 1e-6;
  out.events = r.events;
  out.tenant = std::move(r);
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: the Machines a pass builds, timed on their own.

struct Shape {
  net::ClusterConfig cfg;
  int nodes = 1;
  int ppn = 1;
  simmpi::RunOptions ro;
  bool sharp = false;
  int uses = 0;  // Machines of this shape one pass builds
};

simmpi::RunOptions run_options(const core::MeasureOptions& o) {
  simmpi::RunOptions ro;
  ro.with_data = o.with_data;
  ro.seed = o.seed;
  ro.check_level = o.check;
  ro.fabric_level = o.fabric;
  ro.data_mode = o.data_mode;
  ro.scheduler = o.scheduler;
  ro.perturb = o.perturb;
  return ro;
}

std::vector<Shape> machine_shapes(const Workload& w) {
  std::map<std::string, std::size_t> index;
  std::vector<Shape> shapes;
  auto add = [&](Shape s, int uses) {
    std::ostringstream key;
    key << s.cfg.name << '/' << s.cfg.total_nodes << '/' << s.nodes << '/'
        << s.ppn << '/' << s.ro.with_data << '/'
        << static_cast<int>(s.ro.check_level) << '/'
        << static_cast<int>(s.ro.fabric_level) << '/'
        << static_cast<int>(s.ro.data_mode) << '/' << s.sharp;
    const auto [it, fresh] = index.emplace(key.str(), shapes.size());
    if (fresh) shapes.push_back(std::move(s));
    shapes[it->second].uses += uses;
  };
  for (const Unit& u : w.units) {
    if (const auto* p = std::get_if<MeasurePoint>(&u)) {
      add(Shape{p->cfg, p->nodes, p->ppn, run_options(p->opt), uses_sharp(*p),
                0},
          p->opt.repetitions);
      continue;
    }
    // run_tenants builds the shared Machine plus one per solo baseline,
    // each spanning every job's nodes.
    const auto& m = std::get<TenantMix>(u);
    int nodes = 0;
    for (const tenant::JobSpec& j : m.jobs) nodes += j.nodes;
    simmpi::RunOptions ro;
    ro.with_data = false;
    ro.seed = m.opt.seed;
    ro.fabric_level = m.opt.fabric;
    ro.data_mode = m.opt.data_mode;
    ro.scheduler = m.opt.scheduler;
    add(Shape{m.cfg, nodes, m.ppn, ro, false, 0},
        1 + (m.opt.solo_baseline ? static_cast<int>(m.jobs.size()) : 0));
  }
  return shapes;
}

// ---------------------------------------------------------------------------
// Resident memory of one call: reset_peak() lowers the kernel's high-water
// mark to the current RSS, peak_rss_mb() reads it back. Where the mark
// cannot be reset it covers the process so far.

void reset_peak() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return static_cast<double>(sim::peak_rss_kb()) / 1024.0;
}

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Timing: every call into the simulator goes through a Runner, which counts
// attempts and failures and brackets the call with SpeedProbe samples.

class Runner {
 public:
  explicit Runner(Tracer& tr) : tr_(tr), before_(probe_.sample()) {
    samples_.push_back(before_);
  }

  Tracer& tracer() { return tr_; }

  // Runs `fn` and returns its host seconds at reference speed.
  template <typename F>
  double timed(F&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double dt = seconds_since(t0);
    const double after = probe_.sample();
    samples_.push_back(after);
    const double scaled = dt * 2.0 * kReferenceSeconds / (before_ + after);
    before_ = after;
    return scaled;
  }

  // Host seconds of `u` at reference speed, or nullopt when it threw or its
  // outputs failed verification.
  std::optional<double> run(const Unit& u, std::optional<Outcome>* keep) {
    ++attempted_;
    std::optional<Outcome> o;
    std::string error = "output failed verification";
    const double s = timed([&] {
      try {
        o = run_unit(u, tr_);
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
    if (!o || !o->verified) {
      fail(unit_label(u), error);
      return std::nullopt;
    }
    if (keep != nullptr) *keep = std::move(o);
    return s;
  }

  void count_attempt() { ++attempted_; }
  void fail(const std::string& what, const std::string& why) {
    ++failed_;
    std::cerr << "dpmlbench: FAILED " << what << ": " << why << "\n";
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  // Median probe time over kReferenceSeconds: how much slower than the
  // reference host this run's host was.
  double host_slowdown() const {
    return median(samples_) / kReferenceSeconds;
  }
  std::uint64_t probe_sink() const { return probe_.sink(); }

 private:
  Tracer& tr_;
  SpeedProbe probe_;
  double before_;
  std::vector<double> samples_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// The batch: passes over the workload's units until the time is up.

constexpr int kMinPasses = 3;
// Traced runs record spans on even passes. Pass 0 is a warm-up whose times
// are dropped, so that the two with spans and the two without compare
// equally warm processes.
constexpr int kMinTracedPasses = 5;

struct UnitRecord {
  std::vector<double> host_s;         // passes without spans
  std::vector<double> traced_host_s;  // passes with spans recorded
  std::vector<double> rss_mb;         // peak RSS while the unit ran
  std::optional<Outcome> first;       // the reference outcome
};

struct Batch {
  std::vector<UnitRecord> units;
  std::vector<std::vector<double>> setup_s;  // per shape, every pass
  int passes = 0;
};

Batch run_batch(const Workload& w, const std::vector<Shape>& shapes,
                double seconds, bool traced, Runner& run) {
  Tracer& tr = run.tracer();
  Batch b;
  b.units.resize(w.units.size());
  b.setup_s.resize(shapes.size());
  const int min_passes = traced ? kMinTracedPasses : kMinPasses;
  const Clock::time_point start = Clock::now();
  while (b.passes < min_passes || seconds_since(start) < seconds) {
    // Traced runs alternate passes with and without spans, so the tracing
    // overhead is measured inside one process.
    const bool spans = traced && b.passes % 2 == 0;
    const bool warmup = traced && b.passes == 0;
    tr.set_recording(spans);
    const auto pass = tr.span("pass", "bench");
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const Shape& s = shapes[i];
      b.setup_s[i].push_back(run.timed([&] {
        const auto span = tr.span("simmpi.Machine", "simmpi");
        simmpi::Machine machine(s.cfg, s.nodes, s.ppn, s.ro);
        std::optional<sharp::SharpFabric> fabric;
        if (s.sharp) fabric.emplace(machine);
      }));
    }
    for (std::size_t i = 0; i < w.units.size(); ++i) {
      UnitRecord& rec = b.units[i];
      std::optional<Outcome> o;
      reset_peak();
      const std::optional<double> dt = run.run(w.units[i], &o);
      if (!dt) continue;
      rec.rss_mb.push_back(peak_rss_mb());
      if (!warmup) (spans ? rec.traced_host_s : rec.host_s).push_back(*dt);
      if (!rec.first) {
        rec.first = std::move(o);
      } else if (rec.first->sim_us != o->sim_us ||
                 rec.first->events != o->events) {
        run.fail(unit_label(w.units[i]),
                 "simulated results differ between passes");
      }
    }
    ++b.passes;
  }
  tr.set_recording(traced);
  return b;
}

double sum_of_medians(const Batch& b, bool traced_passes) {
  double total = 0.0;
  for (const UnitRecord& r : b.units) {
    total += median(traced_passes ? r.traced_host_s : r.host_s);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Traced-run extras: differential passes, comm-stat replays, fabric probe.

// One pass over `w` with `edit` applied to every point; host seconds summed.
double differential_pass(const Workload& w,
                         const std::function<void(core::MeasureOptions&)>& edit,
                         const char* name, Runner& run) {
  const auto span = run.tracer().span(name, "bench");
  double total = 0.0;
  for (const Unit& u : w.units) {
    Unit v = u;
    if (auto* p = std::get_if<MeasurePoint>(&v)) edit(p->opt);
    total += run.run(v, nullptr).value_or(0.0);
  }
  return total;
}

// Communication counters of one metadata-only invocation per point, replayed
// through core::run_collective on a Machine the bench builds itself.
struct ReplayStats {
  simmpi::CommStats comm;
  int ops = 0;
};

ReplayStats replay_comm_stats(const Workload& w, Runner& run) {
  Tracer& tr = run.tracer();
  const auto span = tr.span("replay", "bench");
  ReplayStats rs;
  for (const Unit& u : w.units) {
    const auto* p = std::get_if<MeasurePoint>(&u);
    if (p == nullptr) continue;
    run.count_attempt();
    run.timed([&] {
      try {
        const auto s = tr.span("coll.run_collective", "coll", unit_label(u));
        simmpi::RunOptions ro = run_options(p->opt);
        ro.with_data = false;
        ro.check_level = check::CheckLevel::off;
        simmpi::Machine machine(p->cfg, p->nodes, p->ppn, ro);
        std::optional<sharp::SharpFabric> fabric;
        coll::CollSpec used = p->spec;
        if (uses_sharp(*p)) {
          fabric.emplace(machine);
          used.fabric = &*fabric;
        }
        const std::size_t count =
            p->kind == coll::CollKind::barrier
                ? 0
                : p->bytes / simmpi::dtype_size(p->opt.dt);
        machine.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
          coll::CollArgs a;
          a.rank = &r;
          a.comm = &r.machine().world();
          a.count = count;
          a.dt = p->opt.dt;
          a.op = p->opt.op;
          a.root = p->opt.root;
          return core::run_collective(p->kind, a, used);
        });
        rs.comm += machine.comm_stats();
        ++rs.ops;
      } catch (const std::exception& e) {
        run.fail("replay " + unit_label(u), e.what());
      }
    });
  }
  return rs;
}

// Direct FlowFabric churn on cluster D: every node injects seeded 256 KB
// flows to uniform destinations at 30% of its edge bandwidth. Returns host
// microseconds per flow at reference speed.
double fabric_probe_us_per_flow(std::uint64_t seed, bool smoke, Runner& run) {
  const net::ClusterConfig cfg = net::cluster_d();
  const int nodes = smoke ? 8 : 64;
  const int per_node = smoke ? 20 : 200;
  const std::uint64_t bytes = 262144;
  const double cap = cfg.nic.link_bw;
  const double mean_gap_s = static_cast<double>(bytes) / (0.3 * cap * 1e9);
  const std::uint64_t flows = static_cast<std::uint64_t>(nodes) * per_node;
  std::uint64_t done = 0;
  run.count_attempt();
  const double s = run.timed([&] {
    const auto span = run.tracer().span("fabric.FlowFabric", "fabric");
    sim::Engine engine(sim::SchedulerKind::calendar);
    fabric::FlowFabric ff(engine, cfg, nodes);
    std::vector<util::SplitMix64> rng;
    std::vector<int> left(static_cast<std::size_t>(nodes), per_node);
    for (int n = 0; n < nodes; ++n) {
      rng.emplace_back(seed, static_cast<std::uint64_t>(n));
    }
    std::function<void(int)> next = [&](int src) {
      util::SplitMix64& r = rng[static_cast<std::size_t>(src)];
      const sim::Time gap =
          sim::from_seconds(mean_gap_s * (0.5 + r.next_double()));
      engine.schedule_call(engine.now() + std::max<sim::Time>(1, gap),
                           [&, src]() {
                             util::SplitMix64& rr =
                                 rng[static_cast<std::size_t>(src)];
                             int dst = static_cast<int>(rr.next_below(
                                 static_cast<std::uint64_t>(nodes - 1)));
                             if (dst >= src) ++dst;
                             ff.start_flow(src, dst, bytes, cap,
                                           [&done](sim::Time) { ++done; });
                             if (--left[static_cast<std::size_t>(src)] > 0) {
                               next(src);
                             }
                           });
    };
    for (int n = 0; n < nodes; ++n) next(n);
    engine.run();
  });
  if (done != flows) {
    run.fail("fabric probe", std::to_string(done) + " of " +
                                 std::to_string(flows) + " flows completed");
  }
  return s * 1e6 / static_cast<double>(flows);
}

// Simulated-latency anchors of paper_allreduce (see benchmark/README.md).
struct PaperAnchors {
  double dpml_speedup = 0.0;  // max over sizes of mvapich2 / best DPML
  double l16_vs_l1_512k = 0.0;
  double pipelined_vs_plain_1m = 0.0;
  double eq7_err_pct_l1 = 0.0;  // mean |sim - Eq. (7)| / Eq. (7) over sizes
  double eq7_err_pct_l16 = 0.0;
};

PaperAnchors paper_anchors(const Workload& w, const Batch& b, Tracer& tr) {
  PaperAnchors a;
  std::map<std::size_t, std::map<std::string, double>> lat;  // bytes, label
  const MeasurePoint* any = nullptr;
  for (std::size_t i = 0; i < w.units.size(); ++i) {
    const auto& p = std::get<MeasurePoint>(w.units[i]);
    if (!b.units[i].first) continue;
    lat[p.bytes][p.spec.label(p.kind)] = b.units[i].first->sim_us.front();
    any = &p;
  }
  double err_l1 = 0.0, err_l16 = 0.0;
  int n = 0;
  for (const auto& [bytes, row] : lat) {
    double best = 0.0;
    for (const auto& [label, us] : row) {
      if (label.rfind("dpml(", 0) == 0 && (best == 0.0 || us < best)) best = us;
    }
    const auto mv = row.find("mvapich2");
    if (mv != row.end() && best > 0.0) {
      a.dpml_speedup = std::max(a.dpml_speedup, mv->second / best);
    }
    const auto l1 = row.find("dpml(l=1)");
    const auto l16 = row.find("dpml(l=16)");
    const auto l16k4 = row.find("dpml(l=16,k=4)");
    if (l1 == row.end() || l16 == row.end()) continue;
    if (bytes == 524288) a.l16_vs_l1_512k = l1->second / l16->second;
    if (bytes == 1048576 && l16k4 != row.end()) {
      a.pipelined_vs_plain_1m = l16->second / l16k4->second;
    }
    const auto span = tr.span("model.t_dpml", "model");
    const double m1 = model::t_dpml(model::from_cluster(
                          any->cfg, any->nodes, any->ppn, 1, bytes)) * 1e6;
    const double m16 = model::t_dpml(model::from_cluster(
                           any->cfg, any->nodes, any->ppn, 16, bytes)) * 1e6;
    err_l1 += std::abs(l1->second - m1) / m1 * 100.0;
    err_l16 += std::abs(l16->second - m16) / m16 * 100.0;
    ++n;
  }
  if (n > 0) {
    a.eq7_err_pct_l1 = err_l1 / n;
    a.eq7_err_pct_l16 = err_l16 / n;
  }
  return a;
}

// ---------------------------------------------------------------------------
// Metrics output.

class Metrics {
 public:
  void put(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << '{';
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      os << (i == 0 ? "" : ", ") << '"' << e.name << "\": {\"value\": "
         << e.value << ", \"unit\": \"" << e.unit << "\"}";
    }
    os << '}';
    return os.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// The per-layer metrics of a traced run: deterministic counters from each
// unit's reference outcome, plus the differential passes, replays and the
// fabric probe, which run here.
void layer_metrics(const Workload& w, const Batch& b, double host_s,
                   double setup_s, double setup_ranks, std::uint64_t seed,
                   bool smoke, Runner& run, Metrics& m) {
  std::uint64_t events = 0, queue = 0, flows = 0, bg_flows = 0;
  double elided = 0.0, cb_hits = 0.0, pl_hits = 0.0, link_util = 0.0;
  double hot_bg = 0.0, shared_links = 0.0, pipelined_s = 0.0;
  int mixes = 0, replans = 0, max_level = 0;
  std::vector<double> slowdowns, point_s;
  for (std::size_t i = 0; i < b.units.size(); ++i) {
    const UnitRecord& r = b.units[i];
    point_s.push_back(median(r.host_s));
    const auto* p = std::get_if<MeasurePoint>(&w.units[i]);
    if (p != nullptr && p->spec.algo == "dpml" && p->spec.pipeline_k > 1) {
      pipelined_s += median(r.host_s);
    }
    if (!r.first) continue;
    events += r.first->events;
    if (const auto& mr = r.first->measure) {
      const double ev = static_cast<double>(mr->events);
      queue = std::max(queue, mr->perf.peak_queue_depth);
      elided += static_cast<double>(mr->perf.elided_bytes);
      cb_hits += ev * mr->perf.callback_pool_hit_rate;
      pl_hits += ev * mr->perf.payload_pool_hit_rate;
      flows += mr->fabric_flows;
      link_util = std::max(link_util, mr->max_link_util);
    }
    if (const auto& t = r.first->tenant) {
      flows += t->flows;
      bg_flows += t->bg_flows;
      link_util = std::max(link_util, t->max_link_util);
      hot_bg += t->hot_link_bg_share;
      shared_links += t->shared_links;
      ++mixes;
      for (const tenant::JobStats& j : t->jobs) {
        slowdowns.push_back(j.slowdown);
        replans += j.replans;
        max_level = std::max(max_level, j.max_level);
      }
    }
  }
  const double ev = static_cast<double>(events);
  const double traced_host_s = sum_of_medians(b, true);

  // Differential passes: the same points with one layer switched off at a
  // time, each difference taken as a share of the workload's host_s. Only
  // payload-plane workloads have layers to switch off.
  double check_share = 0.0, fabric_share = 0.0, dataplane_share = 0.0;
  const auto* first = std::get_if<MeasurePoint>(&w.units.front());
  if (first != nullptr && first->opt.data_mode == sim::DataMode::payload) {
    double no_check = host_s;
    if (first->opt.check != check::CheckLevel::off) {
      no_check = differential_pass(
          w, [](core::MeasureOptions& o) { o.check = check::CheckLevel::off; },
          "diff.no_check", run);
    }
    double no_fabric = no_check;
    if (first->opt.fabric != fabric::FabricLevel::none) {
      no_fabric = differential_pass(
          w,
          [](core::MeasureOptions& o) {
            o.check = check::CheckLevel::off;
            o.fabric = fabric::FabricLevel::none;
          },
          "diff.no_fabric", run);
    }
    const double timeonly = differential_pass(
        w,
        [](core::MeasureOptions& o) {
          o.check = check::CheckLevel::off;
          o.fabric = fabric::FabricLevel::none;
          o.with_data = false;
          o.data_mode = sim::DataMode::timeonly;
        },
        "diff.timeonly", run);
    check_share = (host_s - no_check) / host_s;
    fabric_share = (no_check - no_fabric) / host_s;
    dataplane_share = (no_fabric - timeonly) / host_s;
  }
  const ReplayStats rs = replay_comm_stats(w, run);
  const double ops = std::max(1, rs.ops);
  const double probe_us = fabric_probe_us_per_flow(seed, smoke, run);
  const PaperAnchors pa = w.name == "paper_allreduce"
                              ? paper_anchors(w, b, run.tracer())
                              : PaperAnchors{};
  const double fl = static_cast<double>(flows);

  m.put("sim.events", ev, "count");
  m.put("sim.events_per_s", ratio(ev, host_s), "1/s");
  m.put("sim.peak_queue_depth", static_cast<double>(queue), "count");
  m.put("sim.callback_pool_hit_rate", ratio(cb_hits, ev), "fraction");
  m.put("sim.payload_pool_hit_rate", ratio(pl_hits, ev), "fraction");
  m.put("sim.elided_mb", elided / 1e6, "MB");
  m.put("sim.dataplane_share", dataplane_share, "fraction");
  m.put("simmpi.setup_us_per_rank", ratio(setup_s * 1e6, setup_ranks),
        "us/rank");
  m.put("simmpi.net_msgs_per_op",
        static_cast<double>(rs.comm.net_messages) / ops, "count");
  m.put("simmpi.net_kb_per_op",
        static_cast<double>(rs.comm.net_bytes) / 1024.0 / ops, "KB");
  m.put("simmpi.shm_kb_per_op",
        static_cast<double>(rs.comm.shm_bytes) / 1024.0 / ops, "KB");
  m.put("simmpi.reduce_kb_per_op",
        static_cast<double>(rs.comm.reduce_bytes) / 1024.0 / ops, "KB");
  m.put("simmpi.rndv_per_op",
        static_cast<double>(rs.comm.rndv_handshakes) / ops, "count");
  m.put("coll.dpml_speedup", pa.dpml_speedup, "x");
  m.put("coll.dpml_l16_vs_l1_512k", pa.l16_vs_l1_512k, "x");
  m.put("coll.pipelined_vs_plain_1m", pa.pipelined_vs_plain_1m, "x");
  m.put("coll.pipelined_host_share", ratio(pipelined_s, host_s), "fraction");
  m.put("model.eq7_err_pct_l1", pa.eq7_err_pct_l1, "%");
  m.put("model.eq7_err_pct_l16", pa.eq7_err_pct_l16, "%");
  m.put("fabric.flows", fl, "count");
  m.put("fabric.bg_flows", static_cast<double>(bg_flows), "count");
  m.put("fabric.events_per_flow", ratio(ev, fl), "count");
  m.put("fabric.host_us_per_flow", ratio(host_s * 1e6, fl), "us/flow");
  m.put("fabric.max_link_util", link_util, "fraction");
  m.put("fabric.self_share", fabric_share, "fraction");
  m.put("fabric.probe_us_per_flow", probe_us, "us/flow");
  m.put("check.self_share", check_share, "fraction");
  m.put("tenant.slowdown_geomean", geomean(slowdowns), "x");
  m.put("tenant.shared_links", ratio(shared_links, mixes), "count");
  m.put("tenant.hot_link_bg_share", ratio(hot_bg, mixes), "fraction");
  m.put("adapt.replans", replans, "count");
  m.put("adapt.max_level", max_level, "count");
  m.put("core.point_s_p50", percentile(point_s, 50.0), "s");
  m.put("core.point_s_p90", percentile(point_s, 90.0), "s");
  m.put("core.trace_overhead_pct", ratio(traced_host_s - host_s, host_s) * 100,
        "%");
  m.put("core.host_slowdown", run.host_slowdown(), "x");
  m.put("core.process_peak_rss_mb",
        static_cast<double>(sim::peak_rss_kb()) / 1024.0, "MB");
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace;
  bool smoke = false;
};

int usage(const char* msg) {
  std::cerr << "dpmlbench: " << msg
            << "\nusage: dpmlbench --workload W [--seed S] [--seconds T] "
               "[--trace FILE] [--smoke]\nworkloads:";
  for (const char* w : kWorkloads) std::cerr << ' ' << w;
  std::cerr << "\n";
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string f = argv[i];
      const bool has_value = i + 1 < argc;
      if (f == "--smoke") {
        a.smoke = true;
      } else if (f == "--workload" && has_value) {
        a.workload = argv[++i];
      } else if (f == "--seed" && has_value) {
        a.seed = std::stoull(argv[++i]);
      } else if (f == "--seconds" && has_value) {
        a.seconds = std::stod(argv[++i]);
      } else if (f == "--trace" && has_value) {
        a.trace = argv[++i];
      } else {
        return std::nullopt;
      }
    }
  } catch (const std::exception&) {
    return std::nullopt;  // a number that does not parse
  }
  if (a.workload.empty() || !(a.seconds >= 0.0)) return std::nullopt;
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.smoke, args.seed);
  const bool traced = !args.trace.empty();
  Tracer tr;
  Runner runner(tr);
  const std::vector<Shape> shapes = machine_shapes(w);
  const Batch b = run_batch(w, shapes, args.smoke ? 0.0 : args.seconds,
                            traced, runner);

  const double host_s = sum_of_medians(b, false);
  double setup_s = 0.0;
  double setup_ranks = 0.0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    setup_s += shapes[i].uses * median(b.setup_s[i]);
    setup_ranks += static_cast<double>(shapes[i].uses) * shapes[i].nodes *
                   shapes[i].ppn;
  }
  std::vector<double> sim_us, rss_mb;
  for (const UnitRecord& r : b.units) {
    rss_mb.push_back(median(r.rss_mb));
    if (r.first) {
      sim_us.insert(sim_us.end(), r.first->sim_us.begin(),
                    r.first->sim_us.end());
    }
  }

  Metrics m;
  m.put("host_s", host_s, "s");
  m.put("setup_s", setup_s, "s");
  m.put("peak_rss_mb", mean(rss_mb), "MB");
  m.put("sim_us_geomean", geomean(sim_us), "sim_us");
  if (traced) {
    layer_metrics(w, b, host_s, setup_s, setup_ranks, args.seed, args.smoke,
                  runner, m);
    if (!tr.write(args.trace)) {
      std::cerr << "dpmlbench: cannot write trace " << args.trace << "\n";
      return 1;
    }
  }
  std::cerr << "dpmlbench: " << b.passes << " passes, probe checksum "
            << runner.probe_sink() << "\n";
  std::cout << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
            << ", \"passes\": " << b.passes << ", \"correct\": "
            << (runner.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << runner.attempted()
            << ", \"failed\": " << runner.failed()
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) return usage("bad arguments");
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::cerr << "dpmlbench: " << e.what() << "\n";
    return 1;
  }
}
