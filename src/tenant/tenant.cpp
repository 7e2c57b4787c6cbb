// TenantSim: N concurrent collective jobs, background traffic, and failure
// events on one shared machine (docs/MODEL.md §11).
#include "tenant/tenant.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>

#include "core/api.hpp"
#include "core/executor.hpp"
#include "sharp/sharp.hpp"
#include "sim/sync.hpp"
#include "simmpi/machine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpml::tenant {

namespace {

// A tenant input error: one line naming the flag or job field, no source
// path.
[[noreturn]] void bad_input(const std::string& what) {
  throw util::InvariantError(what);
}

// Purpose constants for the repo-wide (seed, purpose, rank, op) derivation
// scheme (util/rng.hpp); perturb uses 1..3.
constexpr std::uint64_t kPurposeStagger = 17;
constexpr std::uint64_t kPurposeTraffic = 18;
constexpr std::uint64_t kPurposePlacement = 19;

// Open-loop background flow generator: one seeded arrival chain per source
// node, injecting matrix-chosen point-to-point flows until stopped. Lives
// on the stack across the (synchronous) Machine::run call.
class BgGen {
 public:
  BgGen(sim::Engine& engine, fabric::FlowFabric& ff, const TrafficSpec& spec,
        int nodes, int group, double rate_cap_gbps)
      : engine_(engine),
        ff_(ff),
        spec_(spec),
        nodes_(nodes),
        group_(group),
        rate_cap_gbps_(rate_cap_gbps),
        mean_gap_s_(static_cast<double>(spec.bytes) /
                    (spec.load * rate_cap_gbps * 1e9)) {
    const std::uint64_t purpose =
        util::SplitMix64(spec.seed, kPurposeTraffic).next_u64();
    rng_.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      rng_.emplace_back(purpose, static_cast<std::uint64_t>(n));
    }
    shift_ = spec.shift;
    if (spec.matrix == Matrix::permutation && shift_ == 0) {
      // One seeded shift shared by every source (a true permutation).
      shift_ = 1 + static_cast<int>(util::SplitMix64(purpose, 0xffffffffULL)
                                        .next_below(
                                            static_cast<std::uint64_t>(
                                                std::max(1, nodes - 1))));
    }
  }

  void start() {
    for (int src = 0; src < nodes_; ++src) schedule_next(src);
  }
  void stop() { stopped_ = true; }
  std::uint64_t flows() const { return flows_; }

 private:
  void schedule_next(int src) {
    const double jitter = 0.5 + rng_[static_cast<std::size_t>(src)]
                                    .next_double();
    const sim::Time at =
        engine_.now() + std::max<sim::Time>(
                            1, sim::from_seconds(mean_gap_s_ * jitter));
    engine_.schedule_call(at, [this, src]() {
      if (stopped_) return;
      inject(src);
      schedule_next(src);
    });
  }

  int pick_dst(int src) {
    util::SplitMix64& r = rng_[static_cast<std::size_t>(src)];
    switch (spec_.matrix) {
      case Matrix::permutation:
        return (src + shift_) % nodes_;
      case Matrix::hotspot: {
        const double u = r.next_double();
        const int hot = spec_.hot_node % nodes_;
        if (u < spec_.hot_frac && hot != src) return hot;
        break;
      }
      case Matrix::uniform:
      case Matrix::none:
        break;
    }
    // Uniform over the other nodes.
    int d = static_cast<int>(
        r.next_below(static_cast<std::uint64_t>(nodes_ - 1)));
    if (d >= src) ++d;
    return d;
  }

  void inject(int src) {
    const int dst = pick_dst(src);
    if (dst == src) return;  // degenerate permutation shift
    ++flows_;
    ff_.start_flow(src, dst, spec_.bytes, rate_cap_gbps_,
                   [](sim::Time) {}, group_);
  }

  sim::Engine& engine_;
  fabric::FlowFabric& ff_;
  TrafficSpec spec_;
  int nodes_;
  int group_;
  double rate_cap_gbps_;
  double mean_gap_s_;
  int shift_ = 0;
  bool stopped_ = false;
  std::uint64_t flows_ = 0;
  std::vector<util::SplitMix64> rng_;
};

// Per-iteration arrival aggregation for stall accounting: once every party
// has arrived, the iteration contributed parties*max - sum of waiting.
struct IterAgg {
  int count = 0;
  sim::Time sum = 0;
  sim::Time max = 0;
};

struct JobState {
  std::vector<IterAgg> iters;
  sim::Time start = 0;
  sim::Time end = 0;
  sim::Time stall = 0;
  int done_ranks = 0;
};

// Per-job adaptive re-planning state (shared run with adapt on only): the
// Replanner state machine plus the byte counters that turn the fabric's
// group accounting into per-window foreign-utilization signals.
struct AdaptJob {
  AdaptJob(const adapt::AdaptiveTable* table, coll::CollKind kind,
           adapt::Plan static_plan, std::size_t bytes)
      : rp(table, kind, std::move(static_plan), bytes) {}

  adapt::Replanner rp;
  std::vector<int> links;            // watched links (job edges + core ways)
  std::vector<double> foreign_prev;  // foreign bytes per link at window start
  sim::Time window_start = 0;
};

// Adaptive outcome of one job (echoed into JobStats / table recording).
struct JobAdaptOut {
  std::string final_algo;
  int final_leaders = 0;
  int replans = 0;
  int max_level = 0;
  // Last plan observed at each contention level (for table persistence).
  std::vector<int> obs_levels;
  std::vector<std::string> obs_algos;
  std::vector<int> obs_leaders;
};

// One simulation outcome (the shared run, or job `only_job` running solo).
struct RunOut {
  std::vector<double> start_us;
  std::vector<double> end_us;
  std::vector<double> stall_us;
  std::vector<double> link_share;
  double makespan_us = 0.0;
  std::uint64_t events = 0;
  sim::EnginePerf engine_perf;
  std::uint64_t elided_bytes = 0;
  double max_link_util = 0.0;
  double peak_link_util = 0.0;
  std::uint64_t flows = 0;
  std::uint64_t bg_flows = 0;
  fabric::FabricPerf fabric_perf;
  std::string hot_link;
  double hot_link_bg_share = 0.0;
  int shared_links = 0;
  std::vector<JobAdaptOut> adapt;  // empty when adapt is off
};

// Node-to-job assignment under the placement policy: node_job[n] is the
// owning job (-1 for unused nodes) and job_nodes[j] lists each job's nodes
// in ascending node order (its rank order). A pure function of (jobs,
// placement, seed), so the shared run and every solo baseline agree.
struct PlacementMap {
  std::vector<int> node_job;
  std::vector<std::vector<int>> job_nodes;
  std::vector<int> node_index_in_job;  // rank-block index within the job
};

PlacementMap place_jobs(const std::vector<JobSpec>& jobs, int total_nodes,
                        Placement placement, std::uint64_t seed) {
  const int njobs = static_cast<int>(jobs.size());
  PlacementMap pm;
  pm.node_job.assign(static_cast<std::size_t>(total_nodes), -1);
  pm.job_nodes.resize(static_cast<std::size_t>(njobs));
  pm.node_index_in_job.assign(static_cast<std::size_t>(total_nodes), -1);
  switch (placement) {
    case Placement::block: {
      int base = 0;
      for (int j = 0; j < njobs; ++j) {
        for (int n = 0; n < jobs[static_cast<std::size_t>(j)].nodes; ++n) {
          pm.node_job[static_cast<std::size_t>(base + n)] = j;
        }
        base += jobs[static_cast<std::size_t>(j)].nodes;
      }
      break;
    }
    case Placement::round_robin: {
      // Deal nodes to jobs in rounds; a job drops out once it has its
      // quota, so uneven mixes still fill every node exactly once.
      std::vector<int> remaining(static_cast<std::size_t>(njobs));
      for (int j = 0; j < njobs; ++j) {
        remaining[static_cast<std::size_t>(j)] =
            jobs[static_cast<std::size_t>(j)].nodes;
      }
      int cursor = 0;
      for (int n = 0; n < total_nodes; ++n) {
        int tried = 0;
        while (remaining[static_cast<std::size_t>(cursor)] == 0 &&
               tried < njobs) {
          cursor = (cursor + 1) % njobs;
          ++tried;
        }
        pm.node_job[static_cast<std::size_t>(n)] = cursor;
        --remaining[static_cast<std::size_t>(cursor)];
        cursor = (cursor + 1) % njobs;
      }
      break;
    }
    case Placement::random: {
      // Seeded Fisher-Yates shuffle of the node ids, then block-assign over
      // the shuffled order.
      std::vector<int> perm(static_cast<std::size_t>(total_nodes));
      for (int n = 0; n < total_nodes; ++n) {
        perm[static_cast<std::size_t>(n)] = n;
      }
      util::SplitMix64 r(seed, kPurposePlacement);
      for (int n = total_nodes - 1; n > 0; --n) {
        const int k = static_cast<int>(
            r.next_below(static_cast<std::uint64_t>(n + 1)));
        std::swap(perm[static_cast<std::size_t>(n)],
                  perm[static_cast<std::size_t>(k)]);
      }
      int at = 0;
      for (int j = 0; j < njobs; ++j) {
        for (int n = 0; n < jobs[static_cast<std::size_t>(j)].nodes; ++n) {
          pm.node_job[static_cast<std::size_t>(perm[static_cast<std::size_t>(
              at++)])] = j;
        }
      }
      break;
    }
  }
  for (int n = 0; n < total_nodes; ++n) {
    const int j = pm.node_job[static_cast<std::size_t>(n)];
    if (j < 0) continue;
    pm.node_index_in_job[static_cast<std::size_t>(n)] =
        static_cast<int>(pm.job_nodes[static_cast<std::size_t>(j)].size());
    pm.job_nodes[static_cast<std::size_t>(j)].push_back(n);
  }
  return pm;
}

std::size_t job_count(const JobSpec& j) {
  // Element count for the collective call; alltoall interprets bytes as the
  // per-destination block, matching measure_collective's convention.
  return j.bytes / simmpi::dtype_size(simmpi::Dtype::f32);
}

// Everything the per-rank coroutine touches. Machine::run is synchronous,
// so the pointed-to locals of simulate() outlive every frame; the struct
// travels by shared_ptr so the lambda handed to run stays a plain function
// and no coroutine captures by reference.
struct RankCtx {
  const std::vector<JobSpec>* jobs = nullptr;
  const std::vector<int>* node_job = nullptr;
  const std::vector<sim::Time>* starts = nullptr;
  std::vector<JobState>* state = nullptr;
  std::deque<sim::Barrier>* barriers = nullptr;
  std::vector<const simmpi::Comm*>* comms = nullptr;
  std::vector<const sharp::Group*>* groups = nullptr;
  sharp::SharpFabric* sf = nullptr;
  sim::Engine* engine = nullptr;
  BgGen* bg = nullptr;
  fabric::FlowFabric* ff = nullptr;
  // Adaptive re-planning (shared run only; empty pointers when off).
  std::vector<std::unique_ptr<AdaptJob>>* adapt = nullptr;
  bool shared = true;
  int only_job = -1;
  int ppn = 1;
  int active_jobs = 0;
  int jobs_done = 0;

  AdaptJob* adapt_job(int j) const {
    if (adapt == nullptr) return nullptr;
    return (*adapt)[static_cast<std::size_t>(j)].get();
  }
};

// Foreign (other jobs + background) delivered bytes on `link`, from the
// fabric's per-(link, group) accounting.
double foreign_bytes(const fabric::FlowFabric& ff, int link, int job) {
  return ff.link_total_bytes(link) - ff.link_group_bytes(link, job);
}

// The deterministic re-plan point: runs in the LAST rank to arrive at an
// iteration barrier, before arrive_and_wait releases the peers, so every
// rank of the job reads the updated plan for this iteration. Quantizes the
// window's observed signals to a contention level and lets the Replanner
// re-select (algorithm, leaders) (docs/MODEL.md §12).
void replan_job(const RankCtx& c, int j, const IterAgg& agg, int parties,
                sim::Time now) {
  AdaptJob& aj = *c.adapt_job(j);
  const fabric::FlowFabric& ff = *c.ff;
  adapt::Signals s;
  const sim::Time win = now - aj.window_start;
  if (win > 0) {
    const double win_s = sim::to_us(win) * 1e-6;
    double worst = 0.0;
    for (std::size_t i = 0; i < aj.links.size(); ++i) {
      const int link = aj.links[i];
      const double delta = foreign_bytes(ff, link, j) - aj.foreign_prev[i];
      const double cap_bytes = ff.link_capacity_gbps(link) * 1e9 * win_s;
      if (cap_bytes > 0.0) worst = std::max(worst, delta / cap_bytes);
    }
    s.foreign_util = worst;
    const sim::Time stall =
        static_cast<sim::Time>(parties) * agg.max - agg.sum;
    s.stall_frac = static_cast<double>(stall) /
                   (static_cast<double>(parties) * static_cast<double>(win));
  }
  s.degraded = ff.down_ways() > 0;
  aj.rp.replan(s);
  aj.window_start = now;
  for (std::size_t i = 0; i < aj.links.size(); ++i) {
    aj.foreign_prev[i] = foreign_bytes(ff, aj.links[i], j);
  }
}

sim::CoTask<void> tenant_rank(simmpi::Rank& r, std::shared_ptr<RankCtx> c) {
  const int j = (*c->node_job)[static_cast<std::size_t>(r.node_id())];
  if (j < 0 || (!c->shared && j != c->only_job)) co_return;
  const JobSpec& spec = (*c->jobs)[static_cast<std::size_t>(j)];
  JobState& st = (*c->state)[static_cast<std::size_t>(j)];
  const int parties = spec.nodes * c->ppn;
  co_await c->engine->until((*c->starts)[static_cast<std::size_t>(j)]);
  st.start = (*c->starts)[static_cast<std::size_t>(j)];
  for (int it = 0; it < spec.iterations; ++it) {
    IterAgg& agg = st.iters[static_cast<std::size_t>(it)];
    const sim::Time now = c->engine->now();
    ++agg.count;
    agg.sum += now;
    agg.max = std::max(agg.max, now);
    if (agg.count == parties) {
      st.stall += static_cast<sim::Time>(parties) * agg.max - agg.sum;
      if (c->adapt_job(j) != nullptr) {
        replan_job(*c, j, agg, parties, now);
      }
    }
    co_await (*c->barriers)[static_cast<std::size_t>(j)].arrive_and_wait();
    if (spec.sharp) {
      co_await c->sf->allreduce(r, *(*c->groups)[static_cast<std::size_t>(j)],
                                job_count(spec), simmpi::Dtype::f32,
                                simmpi::ReduceOp::sum, {}, {});
    } else {
      coll::CollArgs args;
      args.rank = &r;
      args.comm = (*c->comms)[static_cast<std::size_t>(j)];
      args.count = job_count(spec);
      args.dt = simmpi::Dtype::f32;
      args.op = simmpi::ReduceOp::sum;
      coll::CollSpec cspec;
      const AdaptJob* aj = c->adapt_job(j);
      if (aj != nullptr) {
        // Every rank reads the plan the last arriver selected above (the
        // barrier orders the write before these reads).
        cspec.algo = aj->rp.plan().algo;
        cspec.leaders = aj->rp.plan().leaders;
      } else {
        cspec.algo = spec.algo;
        cspec.leaders = spec.leaders;
      }
      co_await core::run_collective(spec.kind, args, cspec);
    }
  }
  st.end = std::max(st.end, c->engine->now());
  if (++st.done_ranks == parties) {
    if (++c->jobs_done == c->active_jobs && c->bg) c->bg->stop();
  }
  co_return;
}

RunOut simulate(const net::ClusterConfig& cfg, int ppn,
                const std::vector<JobSpec>& jobs, const TenantOptions& opt,
                int only_job) {
  const int njobs = static_cast<int>(jobs.size());
  const bool shared = only_job < 0;
  int total_nodes = 0;
  for (const JobSpec& j : jobs) total_nodes += j.nodes;

  simmpi::RunOptions ro;
  ro.with_data = false;
  ro.seed = opt.seed;
  ro.perturb = opt.perturb;
  ro.fabric_level = opt.fabric;
  simmpi::Machine machine(cfg, total_nodes, ppn, ro);
  sim::Engine& engine = machine.engine();
  const bool tracing = shared && !opt.trace_json.empty();
  if (tracing) machine.enable_trace();

  // Placement policy decides which nodes each job owns; the mapping is the
  // same for the shared run and every solo baseline.
  const PlacementMap pm =
      place_jobs(jobs, total_nodes, opt.placement, opt.seed);
  const std::vector<int>& node_job = pm.node_job;

  fabric::FlowFabric* ff = machine.flow_fabric();
  if (shared && ff != nullptr) {
    // Groups 0..njobs-1 are the jobs; group njobs is background traffic.
    ff->enable_group_accounting(njobs + 1);
    for (int n = 0; n < total_nodes; ++n) {
      if (node_job[static_cast<std::size_t>(n)] >= 0) {
        ff->set_node_group(n, node_job[static_cast<std::size_t>(n)]);
      }
    }
  }

  // One SharpFabric shared by every SHArP job: op slots and group budget
  // genuinely contend across tenants.
  std::unique_ptr<sharp::SharpFabric> sf;
  std::vector<const sharp::Group*> groups(static_cast<std::size_t>(njobs),
                                          nullptr);
  std::vector<const simmpi::Comm*> comms(static_cast<std::size_t>(njobs),
                                         nullptr);
  std::deque<sim::Barrier> barriers;
  std::vector<JobState> state(static_cast<std::size_t>(njobs));
  for (int j = 0; j < njobs; ++j) {
    const JobSpec& spec = jobs[static_cast<std::size_t>(j)];
    const bool active = shared || j == only_job;
    std::vector<int> ranks;
    for (int n : pm.job_nodes[static_cast<std::size_t>(j)]) {
      for (int p = 0; p < ppn; ++p) {
        ranks.push_back(n * ppn + p);
      }
    }
    const int parties = static_cast<int>(ranks.size());
    barriers.emplace_back(engine, active ? parties : 1);
    state[static_cast<std::size_t>(j)].iters.resize(
        static_cast<std::size_t>(spec.iterations));
    if (!active) continue;
    if (spec.sharp) {
      if (!sf) sf = std::make_unique<sharp::SharpFabric>(machine);
      groups[static_cast<std::size_t>(j)] = &sf->create_group(ranks);
    } else {
      comms[static_cast<std::size_t>(j)] = &machine.make_comm(ranks);
    }
  }

  // Adaptive re-planning state (shared run only): per-job Replanner plus
  // the watched-link set — the job's edge links and the core ways of every
  // leaf hosting one of its nodes (the links its flows can cross).
  std::vector<std::unique_ptr<AdaptJob>> adapt_state;
  const bool adapting = shared && opt.adapt && ff != nullptr;
  if (adapting) {
    adapt_state.resize(static_cast<std::size_t>(njobs));
    const fabric::FabricTopo& topo = ff->topo();
    for (int j = 0; j < njobs; ++j) {
      const JobSpec& spec = jobs[static_cast<std::size_t>(j)];
      if (spec.sharp) continue;  // in-network jobs keep their fixed plan
      auto aj = std::make_unique<AdaptJob>(&opt.table, spec.kind,
                                           adapt::Plan{spec.algo, spec.leaders},
                                           spec.bytes);
      std::vector<char> leaf_seen(static_cast<std::size_t>(topo.leaves), 0);
      for (int n : pm.job_nodes[static_cast<std::size_t>(j)]) {
        aj->links.push_back(ff->uplink(n));
        aj->links.push_back(ff->downlink(n));
        leaf_seen[static_cast<std::size_t>(n / topo.nodes_per_leaf)] = 1;
      }
      for (int l = 0; l < topo.leaves; ++l) {
        if (leaf_seen[static_cast<std::size_t>(l)] == 0) continue;
        for (int w = 0; w < topo.ecmp_ways; ++w) {
          aj->links.push_back(ff->leaf_uplink(l, w));
          aj->links.push_back(ff->leaf_downlink(l, w));
        }
      }
      aj->foreign_prev.assign(aj->links.size(), 0.0);
      adapt_state[static_cast<std::size_t>(j)] = std::move(aj);
    }
  }

  // Seeded start stagger (shared run only; solo baselines start at 0 —
  // makespans are measured from each job's own start, so the stagger does
  // not bias the slowdown ratio).
  std::vector<sim::Time> starts(static_cast<std::size_t>(njobs), 0);
  if (shared && opt.stagger_max_us > 0.0) {
    const std::uint64_t purpose =
        util::SplitMix64(opt.seed, kPurposeStagger).next_u64();
    for (int j = 0; j < njobs; ++j) {
      util::SplitMix64 r(purpose, static_cast<std::uint64_t>(j));
      starts[static_cast<std::size_t>(j)] =
          sim::us(r.next_double() * opt.stagger_max_us);
    }
  }
  for (int j = 0; j < njobs; ++j) {
    if (adapting && adapt_state[static_cast<std::size_t>(j)] != nullptr) {
      // The first observation window opens at the job's own start.
      adapt_state[static_cast<std::size_t>(j)]->window_start =
          starts[static_cast<std::size_t>(j)];
    }
  }

  std::unique_ptr<BgGen> bg;
  if (shared && !opt.traffic.empty()) {
    DPML_CHECK(ff != nullptr);  // validated in run_tenants
    bg = std::make_unique<BgGen>(engine, *ff, opt.traffic, total_nodes, njobs,
                                 cfg.nic.link_bw);
    bg->start();
  }
  if (shared && !opt.failures.empty()) {
    DPML_CHECK(ff != nullptr);
    for (const FailSpec::Event& e : opt.failures.events) {
      engine.schedule_call(sim::us(e.at_us), [ff, e]() {
        ff->set_way_down(e.leaf, e.way, true);
      });
      if (e.recover_us > 0.0) {
        engine.schedule_call(sim::us(e.recover_us), [ff, e]() {
          ff->set_way_down(e.leaf, e.way, false);
        });
      }
    }
    if (adapting) {
      // Failure-triggered re-planning: a set_way_down observed mid-run
      // marks every adaptive job's plan stale, so the next iteration
      // barrier re-plans on the degraded (or recovered) fabric even when
      // the classified level did not move.
      ff->set_failure_listener([&adapt_state](int, int, bool) {
        for (auto& aj : adapt_state) {
          if (aj != nullptr) aj->rp.mark_stale();
        }
      });
    }
  }

  auto ctx = std::make_shared<RankCtx>();
  ctx->jobs = &jobs;
  ctx->node_job = &node_job;
  ctx->starts = &starts;
  ctx->state = &state;
  ctx->barriers = &barriers;
  ctx->comms = &comms;
  ctx->groups = &groups;
  ctx->sf = sf.get();
  ctx->engine = &engine;
  ctx->bg = bg.get();
  ctx->ff = ff;
  ctx->adapt = adapting ? &adapt_state : nullptr;
  ctx->shared = shared;
  ctx->only_job = only_job;
  ctx->ppn = ppn;
  for (int j = 0; j < njobs; ++j) {
    if (shared || j == only_job) ++ctx->active_jobs;
  }

  machine.run(
      [ctx](simmpi::Rank& r) { return tenant_rank(r, ctx); });

  const sim::Time endt = machine.now();
  RunOut out;
  out.events = machine.engine().events_processed();
  out.engine_perf = machine.engine().perf();
  out.elided_bytes = machine.data_plane().elided_bytes();
  out.start_us.resize(static_cast<std::size_t>(njobs), 0.0);
  out.end_us.resize(static_cast<std::size_t>(njobs), 0.0);
  out.stall_us.resize(static_cast<std::size_t>(njobs), 0.0);
  out.link_share.resize(static_cast<std::size_t>(njobs), 0.0);
  double run_end = 0.0;
  for (int j = 0; j < njobs; ++j) {
    const JobState& st = state[static_cast<std::size_t>(j)];
    out.start_us[static_cast<std::size_t>(j)] = sim::to_us(st.start);
    out.end_us[static_cast<std::size_t>(j)] = sim::to_us(st.end);
    out.stall_us[static_cast<std::size_t>(j)] = sim::to_us(st.stall);
    run_end = std::max(run_end, sim::to_us(st.end));
  }
  out.makespan_us = run_end;
  if (ff != nullptr) {
    out.max_link_util = ff->max_avg_link_utilization(endt);
    out.peak_link_util = ff->peak_link_utilization();
    out.flows = ff->total_flows();
    out.fabric_perf = ff->perf();
    out.bg_flows = bg ? bg->flows() : 0;
    if (shared) {
      int hot = 0;
      double hot_util = -1.0;
      for (int l = 0; l < ff->num_links(); ++l) {
        const double u = ff->link_avg_utilization(l, endt);
        if (u > hot_util) {
          hot_util = u;
          hot = l;
        }
      }
      out.hot_link = ff->link_name(hot);
      double total = 0.0;
      for (int g = 0; g <= njobs; ++g) total += ff->link_group_bytes(hot, g);
      if (total > 0.0) {
        for (int j = 0; j < njobs; ++j) {
          out.link_share[static_cast<std::size_t>(j)] =
              ff->link_group_bytes(hot, j) / total;
        }
        out.hot_link_bg_share = ff->link_group_bytes(hot, njobs) / total;
      }
      // Placement witness: links carrying bytes from >= 2 distinct jobs
      // (background excluded).
      for (int l = 0; l < ff->num_links(); ++l) {
        int owners = 0;
        for (int g = 0; g < njobs; ++g) {
          if (ff->link_group_bytes(l, g) > 0.0) ++owners;
        }
        if (owners >= 2) ++out.shared_links;
      }
    }
  }
  if (adapting) {
    out.adapt.resize(static_cast<std::size_t>(njobs));
    for (int j = 0; j < njobs; ++j) {
      JobAdaptOut& ao = out.adapt[static_cast<std::size_t>(j)];
      const AdaptJob* aj = adapt_state[static_cast<std::size_t>(j)].get();
      if (aj == nullptr) {
        ao.final_algo = "sharp";  // only SHArP jobs skip adaptation
        continue;
      }
      ao.final_algo = aj->rp.plan().algo;
      ao.final_leaders = aj->rp.plan().leaders;
      ao.replans = aj->rp.replans();
      ao.max_level = aj->rp.max_level();
      for (int level = 0; level < adapt::kLevels; ++level) {
        if (!aj->rp.observed(level)) continue;
        ao.obs_levels.push_back(level);
        ao.obs_algos.push_back(aj->rp.observed_plan(level).algo);
        ao.obs_leaders.push_back(aj->rp.observed_plan(level).leaders);
      }
    }
  }

  if (tracing) {
    // Relabel the rank lanes per job so the viewer groups tenants.
    for (int n = 0; n < total_nodes; ++n) {
      const int j = node_job[static_cast<std::size_t>(n)];
      if (j < 0) continue;
      for (int p = 0; p < ppn; ++p) {
        const int w = n * ppn + p;
        const int jr =
            pm.node_index_in_job[static_cast<std::size_t>(n)] * ppn + p;
        machine.tracer().set_thread_name(
            w, jobs[static_cast<std::size_t>(j)].name + " rank " +
                   std::to_string(jr) + " (node " + std::to_string(n) + ")");
      }
    }
    std::ofstream os(opt.trace_json);
    machine.tracer().write_chrome_json(os);
    if (!os.good()) bad_input("--trace-json: cannot write " + opt.trace_json);
  }
  return out;
}

// Replays the failure schedule in engine order — by instant, then in
// schedule order (each clause's failure before its recovery) — and rejects
// the first failure after which some pair of leaves (or one leaf with
// itself) shares no live ECMP way: choose_way could not route a
// cross-leaf flow there.
void check_failure_schedule(const FailSpec& spec,
                            const fabric::FabricTopo& topo) {
  struct Step {
    sim::Time at;
    std::size_t clause;
    bool down;
  };
  std::vector<Step> steps;
  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const FailSpec::Event& e = spec.events[i];
    steps.push_back({sim::us(e.at_us), i, true});
    if (e.recover_us > 0.0) steps.push_back({sim::us(e.recover_us), i, false});
  }
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& a, const Step& b) { return a.at < b.at; });
  const int ways = topo.ecmp_ways;
  std::vector<char> down(static_cast<std::size_t>(topo.leaves * ways), 0);
  auto live = [&](int leaf, int way) {
    return down[static_cast<std::size_t>(leaf * ways + way)] == 0;
  };
  for (const Step& s : steps) {
    const FailSpec::Event& e = spec.events[s.clause];
    const int lo = e.leaf < 0 ? 0 : e.leaf;
    const int hi = e.leaf < 0 ? topo.leaves - 1 : e.leaf;
    for (int l = lo; l <= hi; ++l) {
      down[static_cast<std::size_t>(l * ways + e.way)] = s.down ? 1 : 0;
    }
    if (!s.down) continue;
    for (int a = 0; a < topo.leaves; ++a) {
      for (int b = a; b < topo.leaves; ++b) {
        bool shared = false;
        for (int w = 0; w < ways && !shared; ++w) {
          shared = live(a, w) && live(b, w);
        }
        if (shared) continue;
        FailSpec clause;
        clause.events.push_back(e);
        bad_input("bad --fail-links spec: clause '" + clause.to_string() +
                  "' leaves " +
                  (a == b ? "leaf " + std::to_string(a) +
                                " with every ECMP way down"
                          : "leaves " + std::to_string(a) + " and " +
                                std::to_string(b) +
                                " with no common live ECMP way"));
      }
    }
  }
}

void validate(const net::ClusterConfig& cfg, int ppn,
              const std::vector<JobSpec>& jobs, const TenantOptions& opt) {
  if (jobs.empty()) bad_input("tenant mix needs at least one job");
  // Open the trace file for appending (it is written after the run), so an
  // unwritable path fails now rather than after the whole simulation.
  if (!opt.trace_json.empty() &&
      !std::ofstream(opt.trace_json, std::ios::app).good()) {
    bad_input("--trace-json: cannot write " + opt.trace_json);
  }
  if (ppn < 1) {
    bad_input("--ppn must be >= 1 for a tenant run (got " +
              std::to_string(ppn) + ")");
  }
  int total_nodes = 0;
  for (const JobSpec& j : jobs) {
    if (j.nodes < 1) bad_input("job '" + j.name + "' nodes must be >= 1");
    if (j.iterations < 1) {
      bad_input("job '" + j.name + "' iterations must be >= 1 (got " +
                std::to_string(j.iterations) + "; --tenant-iters)");
    }
    total_nodes += j.nodes;
  }
  if (total_nodes > cfg.total_nodes) {
    bad_input("tenant mix wants " + std::to_string(total_nodes) +
              " nodes; cluster '" + cfg.name + "' has " +
              std::to_string(cfg.total_nodes) + " (--nodes)");
  }
  for (const JobSpec& j : jobs) {
    if (j.sharp) {
      if (!cfg.sharp.has_value()) {
        bad_input("job '" + j.name + "' wants SHArP but cluster '" +
                  cfg.name + "' has no switch aggregation");
      }
      if (j.kind != coll::CollKind::allreduce) {
        bad_input("job '" + j.name + "': SHArP tenant jobs support "
                  "allreduce only");
      }
      if (j.bytes > cfg.sharp->max_payload) {
        bad_input("job '" + j.name + "' bytes " + std::to_string(j.bytes) +
                  " exceed the SHArP limit " +
                  std::to_string(cfg.sharp->max_payload));
      }
      continue;
    }
    const coll::CollDescriptor& d =
        coll::CollRegistry::instance().at(j.kind, j.algo);
    if (d.caps.world_only) {
      bad_input("job '" + j.name + "': algorithm '" + j.algo +
                "' is world-only (hierarchical designs assume they own the "
                "machine); pick a flat algorithm");
    }
    if (d.caps.needs_fabric) {
      bad_input("job '" + j.name + "': use sharp=true for in-network "
                "aggregation jobs");
    }
    if (j.nodes * ppn < d.caps.min_comm_size) {
      bad_input("job '" + j.name + "' has " + std::to_string(j.nodes * ppn) +
                " ranks; '" + j.algo + "' needs " +
                std::to_string(d.caps.min_comm_size) + " (--nodes, --ppn)");
    }
    if (j.bytes == 0 && j.kind != coll::CollKind::barrier) {
      bad_input("job '" + j.name + "' bytes must be > 0");
    }
  }
  if ((!opt.traffic.empty() || !opt.failures.empty()) &&
      opt.fabric != fabric::FabricLevel::links) {
    bad_input("--bg-traffic and --fail-links need the flow fabric "
              "(--fabric)");
  }
  if (opt.adapt && opt.fabric != fabric::FabricLevel::links) {
    bad_input("--adapt consumes fabric congestion signals and needs the "
              "flow fabric (--fabric)");
  }
  if (opt.adapt) {
    // Every plan the table could hand a job must be runnable on that job's
    // sub-communicator; failing here beats an InvariantError deep inside a
    // re-planned iteration.
    for (const JobSpec& j : jobs) {
      if (j.sharp) continue;
      for (int level = 0; level < adapt::kLevels; ++level) {
        const adapt::AdaptiveTable::Entry* e =
            opt.table.select(j.kind, j.bytes, level);
        if (e == nullptr) continue;
        const std::string entry = "--adapt-table entry '" + e->spec.algo +
                                  "' (level " + std::to_string(level) + ")";
        const coll::CollDescriptor& d =
            coll::CollRegistry::instance().at(j.kind, e->spec.algo);
        if (d.caps.world_only || d.caps.needs_fabric) {
          bad_input(entry + " is not sub-communicator-safe");
        }
        if (j.nodes * ppn < d.caps.min_comm_size) {
          bad_input("job '" + j.name + "' is too small for " + entry);
        }
        if (e->spec.leaders < 1) bad_input(entry + " needs leaders >= 1");
      }
    }
  }
  if (!opt.traffic.empty()) {
    if (total_nodes < 2) bad_input("--bg-traffic needs at least two nodes");
    if (opt.traffic.matrix == Matrix::hotspot) {
      // The generator is open-loop: if the aggregate demand aimed at the
      // hot node exceeds its edge link, the backlog grows without bound and
      // co-located jobs starve — the run would never terminate.
      const double hot_demand = opt.traffic.load * opt.traffic.hot_frac *
                                static_cast<double>(total_nodes - 1);
      // Demand exactly at capacity is marginally stable (the open-loop
      // arrival rate equals the drain rate), so equality is accepted; only
      // strictly oversubscribed hot links diverge.
      if (hot_demand > 1.0) {
        bad_input("bad --bg-traffic spec: hotspot load * hot_frac * "
                  "(nodes - 1) = " + std::to_string(hot_demand) +
                  " > 1 overloads the hot node's edge link; lower load or "
                  "hot_frac");
      }
      if (opt.traffic.hot_node >= total_nodes) {
        bad_input("bad --bg-traffic spec: hot_node " +
                  std::to_string(opt.traffic.hot_node) +
                  " out of range (the mix has " +
                  std::to_string(total_nodes) + " nodes)");
      }
    }
  }
  if (!opt.failures.empty()) {
    const fabric::FabricTopo topo = fabric::FabricTopo::derive(cfg,
                                                               total_nodes);
    if (topo.ecmp_ways < 2) {
      bad_input("--fail-links: the derived fabric has one ECMP way per "
                "leaf, so no way can fail");
    }
    for (const FailSpec::Event& e : opt.failures.events) {
      if (e.way >= topo.ecmp_ways) {
        bad_input("bad --fail-links spec: way " + std::to_string(e.way) +
                  " out of range (fabric has " +
                  std::to_string(topo.ecmp_ways) + " ways)");
      }
      if (e.leaf >= topo.leaves) {
        bad_input("bad --fail-links spec: leaf " + std::to_string(e.leaf) +
                  " out of range (fabric has " +
                  std::to_string(topo.leaves) + " leaves)");
      }
    }
    check_failure_schedule(opt.failures, topo);
  }
}

}  // namespace

TenantResult run_tenants(const net::ClusterConfig& cfg, int ppn,
                         const std::vector<JobSpec>& jobs,
                         const TenantOptions& opt) {
  validate(cfg, ppn, jobs, opt);
  const int njobs = static_cast<int>(jobs.size());

  // Slot 0 is the shared run; slots 1..njobs are the per-job solo
  // baselines. Each slot is an independent deterministic simulation, so the
  // executor fan-out is byte-identical for any host thread count.
  const std::size_t runs =
      opt.solo_baseline ? static_cast<std::size_t>(1 + njobs) : 1;
  core::Executor ex(opt.jobs);
  std::vector<RunOut> outs = ex.map<RunOut>(runs, [&](std::size_t i) {
    return simulate(cfg, ppn, jobs, opt, static_cast<int>(i) - 1);
  });

  const RunOut& sh = outs[0];
  TenantResult res;
  res.makespan_us = sh.makespan_us;
  res.events = sh.events;
  res.engine_perf = sh.engine_perf;
  res.elided_bytes = sh.elided_bytes;
  for (std::size_t i = 1; i < outs.size(); ++i) {
    res.baseline_perf.merge(outs[i].engine_perf);
    res.baseline_elided_bytes += outs[i].elided_bytes;
  }
  res.max_link_util = sh.max_link_util;
  res.peak_link_util = sh.peak_link_util;
  res.flows = sh.flows;
  res.bg_flows = sh.bg_flows;
  res.fabric_perf = sh.fabric_perf;
  res.hot_link = sh.hot_link;
  res.hot_link_bg_share = sh.hot_link_bg_share;
  res.shared_links = sh.shared_links;
  for (int j = 0; j < njobs; ++j) {
    const JobSpec& spec = jobs[static_cast<std::size_t>(j)];
    JobStats s;
    s.name = spec.name;
    s.kind = coll::coll_kind_name(spec.kind);
    s.algo = spec.sharp ? "sharp" : spec.algo;
    s.nodes = spec.nodes;
    s.ranks = spec.nodes * ppn;
    s.bytes = spec.bytes;
    s.iterations = spec.iterations;
    s.start_us = sh.start_us[static_cast<std::size_t>(j)];
    s.end_us = sh.end_us[static_cast<std::size_t>(j)];
    s.makespan_us = s.end_us - s.start_us;
    if (s.makespan_us > 0.0) {
      s.goodput_gbps = static_cast<double>(spec.bytes) * spec.iterations /
                       (s.makespan_us * 1e-6) / 1e9;
    }
    s.stall_us = sh.stall_us[static_cast<std::size_t>(j)];
    s.link_share = sh.link_share[static_cast<std::size_t>(j)];
    if (!sh.adapt.empty()) {
      const JobAdaptOut& ao = sh.adapt[static_cast<std::size_t>(j)];
      s.final_algo = ao.final_algo;
      s.final_leaders = ao.final_leaders;
      s.replans = ao.replans;
      s.max_level = ao.max_level;
    } else {
      s.final_algo = s.algo;
      s.final_leaders = spec.sharp ? 0 : spec.leaders;
    }
    if (opt.solo_baseline) {
      const RunOut& solo = outs[static_cast<std::size_t>(1 + j)];
      s.solo_us = solo.end_us[static_cast<std::size_t>(j)] -
                  solo.start_us[static_cast<std::size_t>(j)];
      if (s.solo_us > 0.0) s.slowdown = s.makespan_us / s.solo_us;
    }
    res.jobs.push_back(std::move(s));
  }
  if (opt.adapt) {
    // The persisted feedback loop: fold every observed (kind, level) choice
    // back into the input table and hand the result to the caller
    // (dpmlsim --adapt-table writes it to disk).
    adapt::AdaptiveTable updated = opt.table;
    for (int j = 0; j < njobs; ++j) {
      if (sh.adapt.empty()) break;
      const JobAdaptOut& ao = sh.adapt[static_cast<std::size_t>(j)];
      const JobSpec& spec = jobs[static_cast<std::size_t>(j)];
      if (spec.sharp) continue;
      for (std::size_t i = 0; i < ao.obs_levels.size(); ++i) {
        coll::CollSpec cs;
        cs.algo = ao.obs_algos[i];
        cs.leaders = ao.obs_leaders[i];
        updated.record(spec.kind, ao.obs_levels[i], cs);
      }
    }
    res.adapt_table = updated.serialize();
  }
  return res;
}

void fold_perf(const TenantResult& r, const TenantOptions& opt,
               core::PerfReport& report) {
  sim::EnginePerf engine = r.engine_perf;
  engine.merge(r.baseline_perf);
  std::optional<core::FabricCounters> fabric;
  if (opt.fabric == fabric::FabricLevel::links) {
    fabric = core::FabricCounters{r.max_link_util, r.flows, r.bg_flows,
                                  r.fabric_perf};
  }
  report.add(engine, r.elided_bytes + r.baseline_elided_bytes, fabric);
}

}  // namespace dpml::tenant
