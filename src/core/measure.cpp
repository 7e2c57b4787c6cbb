#include "core/measure.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "core/executor.hpp"
#include "sim/pool.hpp"
#include "simmpi/verify.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dpml::core {

namespace {

struct Shared {
  Shared(sim::Engine& e, int parties) : barrier(e, parties) {}
  sim::Barrier barrier;
  sim::Time iter_start = 0;
  std::vector<sim::Time> samples;
};

sim::CoTask<void> bench_rank(CollKind kind, simmpi::Rank& r,
                             const coll::CollSpec& spec,
                             const MeasureOptions& opt, std::size_t count,
                             simmpi::ConstBytes send, simmpi::MutBytes recv,
                             std::shared_ptr<Shared> sh) {
  const auto& world = r.machine().world();
  for (int it = 0; it < opt.warmup + opt.iterations; ++it) {
    co_await sh->barrier.arrive_and_wait();
    if (r.world_rank() == 0) sh->iter_start = r.engine().now();
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &world;
    a.count = count;
    a.dt = opt.dt;
    a.op = opt.op;
    a.root = opt.root;
    a.send = send;
    a.recv = recv;
    co_await run_collective(kind, a, spec);
    co_await sh->barrier.arrive_and_wait();
    if (r.world_rank() == 0 && it >= opt.warmup) {
      sh->samples.push_back(r.engine().now() - sh->iter_start);
    }
  }
}

}  // namespace

namespace {

// Everything one repetition produces, committed into its own slot by the
// sweep executor and merged serially in rep order afterwards — so the merged
// MeasureResult is a pure function of (options, rep count), independent of
// how many host threads ran the sweep.
struct RepOutcome {
  std::vector<sim::Time> samples;
  std::uint64_t events = 0;
  bool verified = true;
  bool fabric_links = false;
  double max_link_util = 0.0;
  std::uint64_t fabric_flows = 0;
  fabric::FabricPerf fabric_perf;
  std::uint64_t imbalance_ops = 0;
  sim::Time imb_entry = 0;
  sim::Time imb_exit = 0;
  sim::Time imb_wait = 0;
  sim::Time sim_end = 0;  // final simulated time of this machine
  sim::EnginePerf engine_perf;
  simmpi::MatchStats match;
  std::uint64_t elided_bytes = 0;  // payload bytes elided (metadata-only)
  std::optional<CheckCounters> check;  // data or checked runs only
};

// One repetition: fresh machine (perturbation seed shifted by `rep`), warmup
// + measured iterations, data verification. Pure function of its arguments:
// touches no state outside the returned RepOutcome, so repetitions can run
// on any thread in any order.
RepOutcome measure_rep(CollKind kind, const net::ClusterConfig& cfg,
                       int nodes, int ppn, std::size_t bytes,
                       const coll::CollSpec& spec, const MeasureOptions& opt,
                       int rep) {
  RepOutcome out;
  const std::size_t esize = simmpi::dtype_size(opt.dt);
  // Barrier moves no data: count is 0 by convention (`bytes` only names the
  // sweep point it rode in on).
  const std::size_t count = kind == CollKind::barrier ? 0 : bytes / esize;

  simmpi::RunOptions ropt;
  ropt.with_data = opt.with_data;
  ropt.seed = opt.seed;
  ropt.check_level = opt.check;
  ropt.fabric_level = opt.fabric;
  ropt.perturb = opt.perturb;
  ropt.perturb.seed = opt.perturb.seed + static_cast<std::uint64_t>(rep);
  simmpi::Machine machine(cfg, nodes, ppn, ropt);

  // Attach an in-network aggregation fabric when the design needs it (or
  // when dpml-auto could route small messages through it).
  std::optional<sharp::SharpFabric> fabric;
  coll::CollSpec used = spec;
  attach_fabric(machine, kind, used, fabric);

  const int world = machine.world_size();
  DPML_CHECK_MSG(opt.root >= 0 && opt.root < world, "measure root out of range");

  // Data-mode buffers sized from the kind's contract (coll/kind.hpp): one
  // operand per rank, written in place over its input extent where the
  // contract puts it. A send buffer is all input, so it is never zeroed
  // first; recv buffers start zeroed. The bcast root's input sits in its
  // recv, which the run overwrites, so the reference keeps a copy of it.
  const coll::KindContract contract = coll::contract_of(kind);
  const bool in_recv = coll::input_in_recv(kind, false);
  const std::size_t block = count * esize;
  std::vector<sim::ByteBuffer> sendbufs;
  std::vector<std::vector<std::byte>> recvbufs(
      static_cast<std::size_t>(world));
  std::vector<std::byte> root_input;
  if (opt.with_data) {
    sendbufs.resize(static_cast<std::size_t>(world));
    for (int w = 0; w < world; ++w) {
      const bool at_root = w == opt.root;
      auto& sb = sendbufs[static_cast<std::size_t>(w)];
      auto& rb = recvbufs[static_cast<std::size_t>(w)];
      sb.resize(coll::extent_blocks(contract.send, world, at_root) * block);
      rb.resize(coll::extent_blocks(contract.recv, world, at_root) * block);
      const std::size_t in = coll::input_blocks(kind, world, at_root);
      if (in == 0) continue;
      const simmpi::MutBytes input =
          in_recv ? simmpi::MutBytes{rb} : simmpi::MutBytes{sb};
      simmpi::fill_operand(input, opt.dt, in * count, w, opt.op, opt.seed);
      if (in_recv) root_input = rb;
    }
  }

  auto sh = std::make_shared<Shared>(machine.engine(), world);
  machine.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
    const auto w = static_cast<std::size_t>(r.world_rank());
    simmpi::ConstBytes send =
        opt.with_data ? simmpi::ConstBytes{sendbufs[w]} : simmpi::ConstBytes{};
    simmpi::MutBytes recv =
        opt.with_data ? simmpi::MutBytes{recvbufs[w]} : simmpi::MutBytes{};
    return bench_rank(kind, r, used, opt, count, send, recv, sh);
  });

  DPML_CHECK(static_cast<int>(sh->samples.size()) == opt.iterations);
  out.samples = std::move(sh->samples);
  out.events = machine.engine().events_processed();
  out.sim_end = machine.engine().now();
  out.engine_perf = machine.engine().perf();
  out.match = machine.match_stats();
  out.elided_bytes = machine.data_plane().elided_bytes();
  if (opt.with_data || machine.checker() != nullptr) {
    CheckCounters& cc = out.check.emplace();
    if (const check::Checker* ck = machine.checker()) cc.verify = ck->stats();
    cc.copied_bytes = machine.data_plane().copied_bytes();
  }
  if (const fabric::FlowFabric* ff = machine.flow_fabric()) {
    out.fabric_links = true;
    out.max_link_util = ff->max_avg_link_utilization(machine.engine().now());
    out.fabric_flows = ff->total_flows();
    out.fabric_perf = ff->perf();
  }
  for (const auto& [key, st] : machine.imbalance_stats()) {
    (void)key;
    out.imbalance_ops += st.ops;
    out.imb_entry += st.entry_skew_total;
    out.imb_exit += st.exit_skew_total;
    out.imb_wait += st.wait_total;
  }

  if (opt.with_data) {
    std::vector<simmpi::ConstBytes> inputs(static_cast<std::size_t>(world));
    std::vector<simmpi::ConstBytes> outputs(static_cast<std::size_t>(world));
    for (int w = 0; w < world; ++w) {
      const auto uw = static_cast<std::size_t>(w);
      outputs[uw] = recvbufs[uw];
      if (coll::input_blocks(kind, world, w == opt.root) == 0) continue;
      inputs[uw] = in_recv ? simmpi::ConstBytes{root_input}
                                 : simmpi::ConstBytes{sendbufs[uw]};
    }
    const check::CollCall call{kind, world, opt.root, count, opt.dt, opt.op};
    out.verified =
        !check::reference_mismatch(call, inputs, outputs, &out.check->verify);
  }
  return out;
}

}  // namespace

MeasureResult measure_collective(CollKind kind, const net::ClusterConfig& cfg,
                                 int nodes, int ppn, std::size_t bytes,
                                 const coll::CollSpec& spec,
                                 const MeasureOptions& opt) {
  const std::size_t esize = simmpi::dtype_size(opt.dt);
  DPML_CHECK_MSG(bytes % esize == 0,
                 "message size must be a multiple of the datatype size");
  DPML_CHECK(opt.iterations >= 1 && opt.warmup >= 0);
  DPML_CHECK_MSG(opt.repetitions >= 1, "measure needs at least one repetition");
  const coll::CollDescriptor& desc =
      coll::CollRegistry::instance().at(kind, spec.algo);
  if (desc.caps.needs_fabric && spec.fabric == nullptr && !cfg.has_sharp()) {
    throw util::InvariantError(std::string(coll::coll_kind_name(kind)) + "/" +
                               desc.name + " needs a SHArP fabric; cluster " +
                               cfg.name + " has none");
  }

  MeasureResult res;

  // Fan the independent repetitions out across the sweep executor. Each rep
  // builds its own Machine/Engine from an explicitly derived seed
  // (perturb.seed + rep) and commits into its own pre-sized slot; the merge
  // below runs serially in rep order, so the result is byte-identical for
  // any jobs count (locked by tests/executor_test.cpp).
  const Executor executor(opt.jobs);
  const auto wall_start = std::chrono::steady_clock::now();  // dpmllint: allow(wall-clock)
  const std::vector<RepOutcome> reps = executor.map<RepOutcome>(
      static_cast<std::size_t>(opt.repetitions), [&](std::size_t rep) {
        return measure_rep(kind, cfg, nodes, ppn, bytes, spec, opt,
                           static_cast<int>(rep));
      });
  const auto wall_end = std::chrono::steady_clock::now();  // dpmllint: allow(wall-clock)

  std::vector<sim::Time> samples;
  samples.reserve(static_cast<std::size_t>(opt.repetitions) *
                  static_cast<std::size_t>(opt.iterations));
  sim::Time imb_entry = 0, imb_exit = 0, imb_wait = 0;
  sim::Time sim_total = 0;
  sim::EnginePerf engine;
  for (const RepOutcome& rep : reps) {
    samples.insert(samples.end(), rep.samples.begin(), rep.samples.end());
    res.events += rep.events;
    res.verified = res.verified && rep.verified;
    if (rep.fabric_links) {
      res.fabric_links = true;
      res.oversubscription = cfg.oversubscription;
      res.max_link_util = std::max(res.max_link_util, rep.max_link_util);
      res.fabric_flows += rep.fabric_flows;
      res.fabric_perf.merge(rep.fabric_perf);
    }
    res.imbalance_ops += rep.imbalance_ops;
    imb_entry += rep.imb_entry;
    imb_exit += rep.imb_exit;
    imb_wait += rep.imb_wait;
    sim_total += rep.sim_end;
    engine.merge(rep.engine_perf);
    res.perf.match.merge(rep.match);
    res.perf.elided_bytes += rep.elided_bytes;
    if (rep.check) {
      if (!res.perf.check) res.perf.check.emplace();
      res.perf.check->merge(*rep.check);
    }
  }
  res.perf.events = res.events;
  res.perf.resumes = engine.resumes;
  res.perf.callbacks = engine.callbacks;
  res.perf.instants = engine.instants;
  res.perf.peak_instants = engine.peak_instants;
  res.perf.peak_queue_depth = engine.peak_queue_depth;
  res.perf.callback_pool_hit_rate = engine.callback_pool.hit_rate();
  res.perf.payload_pool_hit_rate = engine.payload_pool.hit_rate();
  res.perf.frame_pool = engine.frame_pool;
  res.perf.sim_ms = sim::to_us(sim_total) / 1e3;
  res.perf.jobs = executor.jobs();
  res.perf.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  if (res.perf.wall_ms > 0.0) {
    res.perf.events_per_sec =
        static_cast<double>(res.events) / (res.perf.wall_ms / 1e3);
    if (res.perf.sim_ms > 0.0) {
      res.perf.wall_ms_per_sim_ms = res.perf.wall_ms / res.perf.sim_ms;
    }
  }

  sim::Time total = 0;
  sim::Time best = samples.front();
  sim::Time worst = samples.front();
  std::vector<double> us;
  us.reserve(samples.size());
  for (sim::Time t : samples) {
    total += t;
    best = std::min(best, t);
    worst = std::max(worst, t);
    us.push_back(sim::to_us(t));
  }
  res.avg_us = sim::to_us(total) / static_cast<double>(samples.size());
  res.best_us = sim::to_us(best);
  res.worst_us = sim::to_us(worst);
  res.median_us = util::percentile(us, 50.0);
  res.p99_us = util::percentile(std::move(us), 99.0);
  if (res.imbalance_ops > 0) {
    const double ops = static_cast<double>(res.imbalance_ops);
    res.entry_skew_avg_us = sim::to_us(imb_entry) / ops;
    res.exit_skew_avg_us = sim::to_us(imb_exit) / ops;
    res.wait_avg_us = sim::to_us(imb_wait) / ops;
  }
  return res;
}

void PerfReport::add(const MeasureResult& r) {
  PerfReport p;
  p.points = 1;
  p.events = r.perf.events;
  p.resumes = r.perf.resumes;
  p.callbacks = r.perf.callbacks;
  p.instants = r.perf.instants;
  p.peak_instants = r.perf.peak_instants;
  p.peak_queue_depth = r.perf.peak_queue_depth;
  p.elided_bytes = r.perf.elided_bytes;
  p.callback_pool_hits = r.perf.callback_pool_hit_rate;
  p.payload_pool_hits = r.perf.payload_pool_hit_rate;
  p.frame_pool_hits = r.perf.frame_pool.hit_rate();
  p.frame_pool_hit_count = r.perf.frame_pool.hits;
  p.frame_pool_misses = r.perf.frame_pool.misses;
  p.match = r.perf.match;
  p.check = r.perf.check;
  if (r.fabric_links) {
    p.fabric = FabricCounters{r.max_link_util, r.fabric_flows, 0,
                              r.fabric_perf};
  }
  add(p);
}

void PerfReport::add(const sim::EnginePerf& engine,
                     std::uint64_t elided_bytes,
                     const std::optional<FabricCounters>& fabric) {
  PerfReport p;
  p.points = 1;
  p.events = engine.events;
  p.resumes = engine.resumes;
  p.callbacks = engine.callbacks;
  p.instants = engine.instants;
  p.peak_instants = engine.peak_instants;
  p.peak_queue_depth = engine.peak_queue_depth;
  p.elided_bytes = elided_bytes;
  p.callback_pool_hits = engine.callback_pool.hit_rate();
  p.payload_pool_hits = engine.payload_pool.hit_rate();
  p.frame_pool_hits = engine.frame_pool.hit_rate();
  p.frame_pool_hit_count = engine.frame_pool.hits;
  p.frame_pool_misses = engine.frame_pool.misses;
  p.fabric = fabric;
  add(p);
}

void PerfReport::add(const PerfReport& o) {
  points += o.points;
  events += o.events;
  resumes += o.resumes;
  callbacks += o.callbacks;
  instants += o.instants;
  peak_instants = std::max(peak_instants, o.peak_instants);
  peak_queue_depth = std::max(peak_queue_depth, o.peak_queue_depth);
  elided_bytes += o.elided_bytes;
  callback_pool_hits += o.callback_pool_hits;
  payload_pool_hits += o.payload_pool_hits;
  frame_pool_hits += o.frame_pool_hits;
  frame_pool_hit_count += o.frame_pool_hit_count;
  frame_pool_misses += o.frame_pool_misses;
  match.merge(o.match);
  if (o.check) {
    if (!check) check.emplace();
    check->merge(*o.check);
  }
  if (o.fabric) {
    if (!fabric) fabric = FabricCounters{};
    fabric->max_link_util =
        std::max(fabric->max_link_util, o.fabric->max_link_util);
    fabric->flows += o.fabric->flows;
    fabric->bg_flows += o.fabric->bg_flows;
    fabric->perf.merge(o.fabric->perf);
  }
}

void PerfReport::time_sweep(const std::function<void()>& sweep) {
  const auto start =
      std::chrono::steady_clock::now();  // dpmllint: allow(wall-clock)
  sweep();
  const auto end =
      std::chrono::steady_clock::now();  // dpmllint: allow(wall-clock)
  wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
}

namespace {

double events_per_sec(const PerfReport& r) {
  return r.wall_ms > 0.0 ? static_cast<double>(r.events) / (r.wall_ms / 1e3)
                         : 0.0;
}

double mean(double sum, int points) {
  return points > 0 ? sum / static_cast<double>(points) : 0.0;
}

}  // namespace

std::string PerfReport::line() const {
  std::ostringstream os;
  os << "[perf] ";
  if (points > 0) os << points << (points == 1 ? " point, " : " points, ");
  os << "jobs=" << default_jobs() << ", wall " << wall_ms << " ms";
  if (points > 0) {
    os << ", " << events << " simulated events ("
       << events_per_sec(*this) / 1e6 << " Mev/s; " << resumes
       << " resumes, " << callbacks << " callbacks), " << instants
       << " instants (peak " << peak_instants << "), peak queue depth "
       << peak_queue_depth << ", pool hit rates cb="
       << mean(callback_pool_hits, points)
       << " payload=" << mean(payload_pool_hits, points)
       << " frame=" << mean(frame_pool_hits, points);
    if (elided_bytes > 0) {
      os << ", elided " << util::format_bytes(elided_bytes) << " of payload";
    }
  }
  if (match.posted_matches + match.delivered_matches > 0) {
    os << ", matcher: " << match.posted_matches << " matched at post, "
       << match.delivered_matches << " at delivery, " << match.scanned
       << " entries scanned, deepest queues posted " << match.peak_posted
       << " unexpected " << match.peak_unexpected;
  }
  if (check) {
    const check::VerifyStats& v = check->verify;
    os << ", check: " << v.invocations << " invocations verified, "
       << util::format_bytes(v.snapshot_bytes) << " snapshotted, "
       << util::format_bytes(v.compared_bytes) << " compared, "
       << util::format_bytes(v.folded_bytes) << " folded, "
       << util::format_bytes(check->copied_bytes) << " payload copied";
  }
  os << ", peak RSS " << sim::peak_rss_kb() << " KB";
  if (fabric) {
    const fabric::FabricPerf& f = fabric->perf;
    os << "; fabric allocator: " << f.recomputes << " recomputes, "
       << f.fill_rounds << " filling rounds, " << f.link_resums
       << " link re-sums, " << f.wakes << " wakes (" << f.stale_wakes
       << " stale)";
  }
  return os.str();
}

std::string PerfReport::json(
    const std::string& tool,
    const std::vector<std::pair<std::string, std::string>>& tags) const {
  std::ostringstream os;
  const auto member = [&os](const std::string& name, const auto& value) {
    os << "  \"" << name << "\": " << value << ",\n";
  };
  os << "{\n";
  member("tool", "\"" + tool + "\"");
  for (const auto& [name, value] : tags) member(name, value);
  member("points", points);
  member("jobs", default_jobs());
  member("events", events);
  member("events_per_sec", static_cast<long long>(events_per_sec(*this)));
  member("resumes", resumes);
  member("callbacks", callbacks);
  member("instants", instants);
  member("peak_instants", peak_instants);
  member("peak_queue_depth", peak_queue_depth);
  member("peak_rss_kb", sim::peak_rss_kb());
  member("elided_bytes", elided_bytes);
  member("callback_pool_hit_rate", mean(callback_pool_hits, points));
  member("payload_pool_hit_rate", mean(payload_pool_hits, points));
  member("frame_pool_hit_rate", mean(frame_pool_hits, points));
  member("frame_pool_hits", frame_pool_hit_count);
  member("frame_pool_misses", frame_pool_misses);
  if (match.posted_matches + match.delivered_matches > 0) {
    member("posted_matches", match.posted_matches);
    member("delivered_matches", match.delivered_matches);
    member("match_scanned", match.scanned);
    member("peak_posted_queue", match.peak_posted);
    member("peak_unexpected_queue", match.peak_unexpected);
  }
  if (check) {
    member("verified_invocations", check->verify.invocations);
    member("snapshot_bytes", check->verify.snapshot_bytes);
    member("compared_bytes", check->verify.compared_bytes);
    member("folded_bytes", check->verify.folded_bytes);
    member("copied_bytes", check->copied_bytes);
  }
  if (fabric) {
    member("fabric", "true");
    member("max_link_util", fabric->max_link_util);
    member("fabric_flows", fabric->flows);
    member("bg_flows", fabric->bg_flows);
    member("fabric_recomputes", fabric->perf.recomputes);
    member("fabric_fill_rounds", fabric->perf.fill_rounds);
    member("fabric_link_resums", fabric->perf.link_resums);
    member("fabric_wakes", fabric->perf.wakes);
    member("fabric_stale_wakes", fabric->perf.stale_wakes);
  }
  os << "  \"wall_ms\": " << wall_ms << "\n}\n";
  return os.str();
}

}  // namespace dpml::core
