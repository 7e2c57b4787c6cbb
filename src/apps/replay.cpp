#include "apps/replay.hpp"

#include <charconv>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>

#include "coll/bcast.hpp"
#include "coll/group_coll.hpp"
#include "coll/reduce.hpp"
#include "util/error.hpp"

namespace dpml::apps {

using simmpi::Machine;
using simmpi::Rank;

std::vector<TraceOp> parse_trace(const std::string& text) {
  std::vector<TraceOp> ops;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(t);
    if (tok.empty()) continue;
    const std::string where = "trace line " + std::to_string(lineno) + ": ";
    const std::string& kind = tok[0];
    TraceOp op;
    if (kind == "allreduce") {
      op.kind = TraceOp::Kind::allreduce;
    } else if (kind == "reduce") {
      op.kind = TraceOp::Kind::reduce;
    } else if (kind == "bcast") {
      op.kind = TraceOp::Kind::bcast;
    } else if (kind == "barrier") {
      op.kind = TraceOp::Kind::barrier;
    } else {
      DPML_CHECK_MSG(false, where + "unknown op '" + kind + "'");
    }
    // Every op but barrier carries a size; all take an optional gap.
    const bool sized = op.kind != TraceOp::Kind::barrier;
    const std::size_t gap_at = sized ? 2 : 1;
    DPML_CHECK_MSG(tok.size() <= gap_at + 1,
                   where + "unexpected trailing token '" + tok[gap_at + 1] +
                       "'");
    if (sized) {
      DPML_CHECK_MSG(tok.size() >= 2, where + "missing size");
      const std::string& size = tok[1];
      const char* last = size.data() + size.size();
      const auto [end, ec] = std::from_chars(size.data(), last, op.bytes);
      DPML_CHECK_MSG(end == last && ec == std::errc{},
                     where + "bad size '" + size +
                         "' (expected a byte count: digits only)");
      // The reductions run on f32 elements.
      DPML_CHECK_MSG(op.kind == TraceOp::Kind::bcast || op.bytes % 4 == 0,
                     where + kind + " size " + size +
                         " is not a multiple of the 4-byte f32 element");
    }
    if (tok.size() > gap_at) {
      const std::string& gap = tok[gap_at];
      const char* last = gap.data() + gap.size();
      const auto [end, ec] = std::from_chars(gap.data(), last, op.compute_us);
      DPML_CHECK_MSG(end == last && ec == std::errc{} &&
                         std::isfinite(op.compute_us) && op.compute_us >= 0,
                     where + "bad compute gap '" + gap +
                         "' (expected non-negative microseconds)");
    }
    ops.push_back(op);
  }
  return ops;
}

std::string example_trace() {
  // Production-like mix: dominated by small allreduces with periodic
  // medium/large reductions (checkpoint norms, IO prep) — paper [24].
  std::ostringstream os;
  for (int i = 0; i < 10; ++i) {
    os << "allreduce 8 50\n";
    os << "allreduce 8 50\n";
    os << "allreduce 64 120\n";
    if (i % 2 == 0) os << "allreduce 16384 400\n";
    if (i % 5 == 0) {
      os << "allreduce 1048576 800\n";
      os << "bcast 4096 100\n";
    }
  }
  os << "barrier\n";
  os << "reduce 262144 200\n";
  return os.str();
}

namespace {

struct ReplayShared {
  explicit ReplayShared(sim::Engine& e, int parties) : barrier(e, parties) {}
  sim::Barrier barrier;
  sim::Time comm = 0;
  int ops = 0;
};

sim::CoTask<void> replay_rank(Rank& r, const std::vector<TraceOp>& trace,
                              const ReplayOptions& opt,
                              const core::CollSpec& spec,
                              std::shared_ptr<ReplayShared> sh) {
  Machine& m = r.machine();
  for (int rep = 0; rep < opt.repetitions; ++rep) {
    for (const TraceOp& op : trace) {
      if (op.compute_us > 0) co_await r.compute(sim::us(op.compute_us));
      const sim::Time t0 = r.engine().now();
      switch (op.kind) {
        case TraceOp::Kind::allreduce: {
          coll::CollArgs a;
          a.rank = &r;
          a.comm = &m.world();
          a.count = op.bytes / 4;
          a.inplace = true;
          co_await core::run_collective(core::CollKind::allreduce, a, spec);
          break;
        }
        case TraceOp::Kind::reduce: {
          coll::ReduceArgs a;
          a.rank = &r;
          a.comm = &m.world();
          a.root = 0;
          a.count = op.bytes / 4;
          a.inplace = true;
          co_await coll::reduce(a, coll::ReduceAlgo::automatic);
          break;
        }
        case TraceOp::Kind::bcast: {
          coll::BcastArgs a;
          a.rank = &r;
          a.comm = &m.world();
          a.bytes = op.bytes;
          co_await coll::bcast(a);
          break;
        }
        case TraceOp::Kind::barrier: {
          coll::BarrierArgs a;
          a.rank = &r;
          a.comm = &m.world();
          co_await coll::barrier(a);
          break;
        }
      }
      if (r.world_rank() == 0) {
        sh->comm += r.engine().now() - t0;
        ++sh->ops;
      }
    }
  }
  co_await sh->barrier.arrive_and_wait();
}

}  // namespace

ReplayResult replay_trace(const net::ClusterConfig& cfg,
                          const std::vector<TraceOp>& trace,
                          const ReplayOptions& opt) {
  DPML_CHECK(opt.repetitions >= 1);
  DPML_CHECK_MSG(!trace.empty(), "empty trace");
  simmpi::RunOptions ropt;
  ropt.with_data = false;
  Machine m(cfg, opt.nodes, opt.ppn, ropt);

  std::optional<sharp::SharpFabric> fabric;
  core::CollSpec spec = opt.spec;
  core::attach_fabric(m, core::CollKind::allreduce, spec, fabric);

  auto sh = std::make_shared<ReplayShared>(m.engine(), m.world_size());
  m.run([&](Rank& r) -> sim::CoTask<void> {
    return replay_rank(r, trace, opt, spec, sh);
  });

  ReplayResult res;
  res.total_s = sim::to_seconds(m.now());
  res.comm_s = sim::to_seconds(sh->comm);
  res.ops = sh->ops;
  return res;
}

}  // namespace dpml::apps
