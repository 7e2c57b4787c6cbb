#include "apps/program.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "coll/bcast.hpp"
#include "coll/group_coll.hpp"
#include "coll/reduce.hpp"
#include "util/error.hpp"

namespace dpml::apps {

namespace {

// State every rank of one run_program call shares.
struct Run {
  sim::Barrier sync;
  const core::CollSpec& spec;
  std::vector<sim::Time> started;  // rank 0's open timer starts
  std::vector<Timer> timers;
};

sim::CoTask<void> run_rank(simmpi::Rank& r, const Program& program,
                           Run& run) {
  using K = Op::Kind;
  const simmpi::Comm& world = r.machine().world();
  const bool timing = r.world_rank() == 0;
  std::vector<std::shared_ptr<sim::Flag>> pending;
  for (const Op& op : program) {
    switch (op.kind) {
      case K::compute: co_await r.compute(op.time); break;
      case K::sync: co_await run.sync.arrive_and_wait(); break;
      case K::begin:
        if (timing) run.started.at(op.timer) = r.engine().now();
        break;
      case K::end:
        if (timing) {
          Timer& t = run.timers.at(op.timer);
          t.total += r.engine().now() - run.started.at(op.timer);
          ++t.count;
        }
        break;
      case K::allreduce:
      case K::iallreduce: {
        const coll::CollArgs a{.rank = &r, .comm = &world, .count = op.count,
                               .dt = op.dt, .op = op.op, .tag_base = op.tag,
                               .inplace = true};
        if (op.kind == K::iallreduce) {
          pending.push_back(
              core::start_collective(core::CollKind::allreduce, a, run.spec));
        } else {
          co_await core::run_collective(core::CollKind::allreduce, a,
                                        run.spec);
        }
        break;
      }
      case K::waitall:
        co_await sim::wait_all(std::move(pending));
        pending.clear();
        break;
      case K::reduce: {
        const coll::CollArgs a{.rank = &r, .comm = &world, .count = op.count,
                               .dt = op.dt, .op = op.op, .inplace = true};
        co_await coll::reduce(a);
        break;
      }
      case K::bcast: {
        const coll::CollArgs a{.rank = &r, .comm = &world, .count = op.count,
                               .dt = coll::Dtype::u8};
        co_await coll::bcast(a);
        break;
      }
      case K::barrier: {
        const coll::CollArgs a{.rank = &r, .comm = &world};
        co_await coll::barrier(a);
        break;
      }
      case K::send: co_await r.send(world, op.peer, op.tag, op.count); break;
      case K::recv: co_await r.recv(world, op.peer, op.tag, op.count); break;
      case K::isend:
        pending.push_back(r.isend(world, op.peer, op.tag, op.count));
        break;
      case K::irecv:
        pending.push_back(r.irecv(world, op.peer, op.tag, op.count).done);
        break;
    }
  }
}

}  // namespace

ProgramResult run_program(const net::ClusterConfig& cfg, int nodes, int ppn,
                          const core::CollSpec& spec, std::uint64_t seed,
                          const std::vector<Program>& programs, int timers) {
  simmpi::RunOptions ropt;
  ropt.with_data = false;
  ropt.seed = seed;
  simmpi::Machine m(cfg, nodes, ppn, ropt);
  const bool shared = programs.size() == 1;
  DPML_CHECK_MSG(shared || programs.size() ==
                               static_cast<std::size_t>(m.world_size()),
                 "need one program, or one per rank");

  std::optional<sharp::SharpFabric> fabric;
  core::CollSpec run_spec = spec;
  const auto reduces = [](const Op& op) {
    return op.kind == Op::Kind::allreduce || op.kind == Op::Kind::iallreduce;
  };
  for (const Program& p : programs) {
    if (std::any_of(p.begin(), p.end(), reduces)) {
      core::attach_fabric(m, core::CollKind::allreduce, run_spec, fabric);
      break;
    }
  }

  const auto n = static_cast<std::size_t>(timers);
  Run run{sim::Barrier(m.engine(), m.world_size()), run_spec,
          std::vector<sim::Time>(n), std::vector<Timer>(n)};
  m.run([&](simmpi::Rank& r) {
    const auto w = static_cast<std::size_t>(r.world_rank());
    return run_rank(r, programs[shared ? 0 : w], run);
  });
  return {m.now(), std::move(run.timers)};
}

void require(bool ok, const char* app, const char* field,
             const std::string& rule, long long value) {
  if (!ok) {
    throw util::InvariantError(std::string(app) + ": " + field + " must be " +
                               rule + ", got " + std::to_string(value));
  }
}

int check_shape(const char* app, const net::ClusterConfig& cfg, int nodes,
                int ppn) {
  const std::string on = " on cluster " + cfg.name;
  require(nodes >= 1, app, "nodes", ">= 1", nodes);
  require(nodes <= cfg.total_nodes, app, "nodes",
          "<= " + std::to_string(cfg.total_nodes) + on, nodes);
  require(ppn >= 1 && ppn <= cfg.max_ppn(), app, "ppn",
          "in [1, " + std::to_string(cfg.max_ppn()) + "]" + on, ppn);
  return nodes * ppn;
}

}  // namespace dpml::apps
