#include "core/api.hpp"

#include <algorithm>
#include <mutex>
#include <set>
#include <utility>

#include "util/error.hpp"
#include "util/log.hpp"

namespace dpml::core {

namespace {

// The tuned selection table behind "dpml-auto": the paper's "proposed"
// configuration chosen per message size and platform (§6.4). Small
// messages use SHArP when the fabric offers it; otherwise leader counts
// grow with message size, and on fabrics whose large-message throughput
// does not scale with concurrency (Omni-Path Zone C) the inter-node phase
// is pipelined.
CollSpec auto_spec(const coll::CollArgs& args, sharp::SharpFabric* fabric) {
  const auto& m = args.rank->machine();
  const std::size_t bytes = args.bytes();
  const int ppn = m.ppn();

  CollSpec s;
  if (fabric != nullptr && bytes <= 2048 && fabric->supports(bytes)) {
    s.algo = m.config().node.sockets > 1 ? "sharp-socket-leader"
                                         : "sharp-node-leader";
    s.fabric = fabric;
    return s;
  }

  s.algo = "dpml";
  if (bytes <= 1024) {
    s.leaders = 1;
  } else if (bytes <= 8 * 1024) {
    s.leaders = 4;
  } else if (bytes <= 64 * 1024) {
    s.leaders = 8;
  } else {
    s.leaders = 16;
  }
  s.leaders = std::min(s.leaders, ppn);

  // Omni-Path-like fabric: a single stream already saturates the link for
  // large messages, so pipeline the per-leader partitions (paper §4.2).
  const auto& nic = m.config().nic;
  const bool message_rate_fabric = nic.proc_bw > nic.link_bw / 2.0;
  const std::size_t per_leader = bytes / static_cast<std::size_t>(s.leaders);
  if (message_rate_fabric && per_leader > 64 * 1024) {
    s.pipeline_k = static_cast<int>(
        std::min<std::size_t>(8, per_leader / (32 * 1024)));
  }
  return s;
}

// "dpml-auto" lives here rather than in src/coll because its resolution
// policy (auto_spec) is a core-layer concern. api.cpp defines
// run_collective itself, so this TU's statics are guaranteed initialized
// before any dispatch can happen.
const coll::CollRegistration reg_dpml_auto{{
    "dpml-auto",
    CollKind::allreduce,
    coll::CollCaps{},
    [](coll::CollArgs a, const CollSpec& s) {
      const CollSpec resolved = auto_spec(a, s.fabric);
      return run_collective(CollKind::allreduce, std::move(a), resolved);
    }}};

// Warn at most once per distinct clamp configuration; measurement loops
// dispatch per rank per iteration and would otherwise flood stderr. The
// sweep executor dispatches from several host threads at once, so the
// dedup set is locked (only clamped dispatches get here).
void warn_leader_clamp(CollKind kind, const std::string& algo, int requested,
                       int ppn) {
  static std::mutex mu;
  static std::set<std::string> warned;
  const std::string key = std::string(coll::coll_kind_name(kind)) + "/" +
                          algo + "/" + std::to_string(requested) + ">" +
                          std::to_string(ppn);
  const std::lock_guard<std::mutex> lock(mu);
  if (!warned.insert(key).second) return;
  DPML_WARN("clamping " << coll::coll_kind_name(kind) << "/" << algo
                        << " leaders from " << requested << " to ppn=" << ppn);
}

// The span a rank contributes to a collective (what the serial reference
// folds or places), where the kind's contract (coll/kind.hpp) puts it:
// empty where the rank contributes none, recv when the input sits there
// (the bcast root; in place, block `me` of a p-block recv), else send.
coll::ConstBytes check_input_of(CollKind kind, const coll::CollArgs& args,
                                int comm_rank) {
  const coll::KindContract c = coll::contract_of(kind);
  const int p = args.comm->size();
  const std::size_t blocks =
      coll::input_blocks(kind, p, comm_rank == args.root);
  if (comm_rank < 0 || blocks == 0) return {};
  if (!coll::input_in_recv(kind, args.inplace)) return args.send;
  const coll::ConstBytes recv = coll::as_const(args.recv);
  if (coll::extent_blocks(c.recv, p, true) == blocks) return recv;
  return coll::sub(recv, static_cast<std::size_t>(comm_rank) * args.bytes(),
                   args.bytes());
}

// Tracing/perturbation/checking wrapper: applies arrival skew before the
// rank's outermost collective entry, records the participation as a span,
// accumulates per-(kind, label) latency and imbalance stats, and notifies
// the semantics checker of entry/exit (with input/output snapshots). Only
// instantiated while the machine traces, perturbs, or checks, so the common
// path pays nothing for attribution.
sim::CoTask<void> run_attributed(const coll::CollDescriptor& d,
                                 coll::CollArgs args, CollSpec spec,
                                 std::string label) {
  simmpi::Rank& r = *args.rank;
  simmpi::Machine& m = r.machine();
  const int world_rank = r.world_rank();
  const int parties = args.comm->size();
  const int comm_rank = args.comm->rank_of_world(world_rank);

  // Snapshot the spans before `args` is moved into the algorithm coroutine.
  check::Checker* ck = comm_rank >= 0 ? m.checker() : nullptr;
  const coll::ConstBytes check_in = check_input_of(d.kind, args, comm_rank);
  const coll::ConstBytes check_out = coll::as_const(args.recv);
  std::uint64_t check_token = 0;
  if (ck != nullptr) {
    check_token = ck->begin_collective(
        d.kind, world_rank, args.comm->context(), label, parties, comm_rank,
        args.root, args.count, args.dt, args.op, check_in);
  }

  // Arrival skew delays this rank's entry into its *outermost* collective
  // only: algorithms dispatched from inside another collective (dpml-auto,
  // the library selection stacks) enter at depth > 1 and are not re-skewed.
  perturb::Perturbation* pt = m.perturbation();
  const bool top = pt != nullptr && pt->enter_collective(world_rank);
  if (top) {
    const sim::Time off = pt->arrival_offset(world_rank);
    if (off > 0) {
      const sim::Time t0 = m.now();
      co_await r.engine().delay(off);
      m.trace("arrival-skew", "perturb", world_rank, t0, m.now());
    }
  }

  const sim::Time start = m.now();
  co_await d.make(std::move(args), spec);
  const sim::Time end = m.now();
  if (pt != nullptr) pt->exit_collective(world_rank);
  if (ck != nullptr) ck->end_collective(world_rank, check_token, check_out);
  const char* kind = coll::coll_kind_name(d.kind);
  m.trace(label.c_str(), kind, world_rank, start, end);
  const std::string key = std::string(kind) + "/" + label;
  m.note_collective(key, end - start);
  m.note_imbalance(key, parties, world_rank, start, end);
}

}  // namespace

sim::CoTask<void> run_collective(CollKind kind, coll::CollArgs args,
                                 const CollSpec& spec) {
  DPML_CHECK_MSG(args.rank != nullptr && args.comm != nullptr,
                 "CollArgs missing rank/comm");
  const coll::CollDescriptor& d =
      coll::CollRegistry::instance().at(kind, spec.algo);

  // Validate the spec against the descriptor's capabilities here, before
  // the coroutine starts, so misconfiguration fails with a clear message
  // instead of deep inside a phase.
  DPML_CHECK_MSG(spec.leaders >= 1,
                 "spec.leaders must be >= 1 for " + d.name);
  DPML_CHECK_MSG(spec.pipeline_k >= 1,
                 "spec.pipeline_k must be >= 1 for " + d.name);
  if (coll::contract_of(kind).rooted) {
    DPML_CHECK_MSG(args.root >= 0 && args.root < args.comm->size(),
                   "root out of range for " + d.name);
  }
  if (d.caps.needs_fabric) {
    DPML_CHECK_MSG(spec.fabric != nullptr,
                   d.name + " requires an attached SharpFabric");
  }
  simmpi::Machine& m = args.rank->machine();
  DPML_CHECK_MSG(args.comm->size() >= d.caps.min_comm_size,
                 d.name + " needs a communicator of at least " +
                     std::to_string(d.caps.min_comm_size) + " ranks");

  CollSpec s = spec;
  // Hierarchical (world_only) designs spawn `leaders` processes per node, so
  // more than ppn is meaningless; flat leader-parameterized designs (e.g. the
  // multi-channel ring, where leaders = concurrent channels) are not bound by
  // ppn and clamp internally.
  if (d.caps.uses_leaders && d.caps.world_only && s.leaders > m.ppn()) {
    warn_leader_clamp(kind, d.name, s.leaders, m.ppn());
    s.leaders = m.ppn();
  }

  if (!m.tracing() && m.perturbation() == nullptr && m.checker() == nullptr) {
    // Direct hand-off: the descriptor's coroutine is the collective, with
    // no wrapper frame — simulated times are identical to calling the
    // src/coll implementation directly.
    return d.make(std::move(args), s);
  }
  std::string label = s.label(kind);
  return run_attributed(d, std::move(args), std::move(s), std::move(label));
}

std::shared_ptr<sim::Flag> start_collective(CollKind kind, coll::CollArgs args,
                                            const CollSpec& spec) {
  sim::Engine& engine = args.rank->engine();
  return engine.spawn_sub(run_collective(kind, std::move(args), spec));
}

bool takes_fabric(CollKind kind, const std::string& algo) {
  return coll::CollRegistry::instance().at(kind, algo).caps.needs_fabric ||
         algo == "dpml-auto";
}

void attach_fabric(simmpi::Machine& m, CollKind kind, CollSpec& spec,
                   std::optional<sharp::SharpFabric>& fabric) {
  if (takes_fabric(kind, spec.algo) && m.config().has_sharp() &&
      spec.fabric == nullptr) {
    fabric.emplace(m);
    spec.fabric = &*fabric;
  }
}

}  // namespace dpml::core
