// One runner for every application kernel.
//
// HPCG, miniAMR, the stencil, DL, trace replay and the OSU benchmarks each
// run a fixed per-rank sequence of compute, point-to-point and collective
// calls, timed on rank 0. Each kernel is a program builder: it expands its
// options into Programs and maps run_program's result onto its Result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "net/cluster.hpp"

namespace dpml::apps {

// One step of a rank's program; a kind ignores the fields it does not name.
// The i-prefixed kinds are non-blocking and complete at the next waitall.
struct Op {
  enum class Kind : std::uint8_t {
    compute,                // local work for exactly `time`
    sync,                   // zero-cost barrier of every rank
    begin, end,             // rank 0 opens / closes timer `timer`
    allreduce, iallreduce,  // in place: `count` `dt` elements under `op`,
                            // tag space `tag`, with run_program's design
    waitall,
    reduce,                 // in place: `count` `dt` elements to rank 0
    bcast,                  // `count` bytes from rank 0
    barrier,                // message-passing barrier (coll::barrier)
    send, recv, isend, irecv,  // `count` bytes with `peer` under `tag`
  };
  Kind kind = Kind::compute;
  simmpi::Dtype dt = simmpi::Dtype::f32;
  simmpi::ReduceOp op = simmpi::ReduceOp::sum;
  int peer = 0;
  int tag = 0;
  int timer = 0;
  sim::Time time = 0;
  std::size_t count = 0;
};

using Program = std::vector<Op>;

struct Timer {
  sim::Time total = 0;  // summed begin -> end intervals on rank 0
  int count = 0;        // intervals closed
};

struct ProgramResult {
  sim::Time end = 0;          // simulated time when the last rank finished
  std::vector<Timer> timers;  // one per timer index
};

// Runs `programs[w]` on world rank w (or `programs[0]` on every rank) of a
// metadata-only `nodes` x `ppn` machine of `cfg`. Every allreduce runs
// `spec`, with a SHArP fabric attached when it takes one; `timers` is the
// number of timer indices the programs use.
ProgramResult run_program(const net::ClusterConfig& cfg, int nodes, int ppn,
                          const core::CollSpec& spec, std::uint64_t seed,
                          const std::vector<Program>& programs, int timers);

// Unless `ok`, throws util::InvariantError "<app>: <field> must be <rule>,
// got <value>": the one message of every kernel's option checks.
void require(bool ok, const char* app, const char* field,
             const std::string& rule, long long value);

// Checks a kernel's `nodes` x `ppn` shape against `cfg` (per-rank programs
// are built before the machine exists) and returns the rank count.
int check_shape(const char* app, const net::ClusterConfig& cfg, int nodes,
                int ppn);

}  // namespace dpml::apps
