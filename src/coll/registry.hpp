// Op-generic collective registry.
//
// Every collective algorithm in the library self-describes through a
// CollDescriptor — a (kind, name) identity, capability flags, and a
// coroutine factory — and registers itself at static-init time from its own
// translation unit (see the CollRegistration objects at the bottom of the
// src/coll/*.cpp implementation files). The layers above (core dispatch,
// selection tables, the tuner, dpmlsim, the benches) enumerate and dispatch
// through the registry instead of per-op switch ladders, so adding an
// algorithm — or a whole collective kind — never touches the dispatcher.
//
// The nine collective kinds share one argument type: CollArgs (vector
// length, dtype, op, buffers, root) plus a CollSpec naming the algorithm and
// its runtime parameters. `count` is interpreted per kind: the full vector
// for allreduce/reduce/bcast, the per-block element count for
// alltoall/allgather/reduce_scatter/gather/scatter, and 0 for barrier. The
// per-kind contract in coll/kind.hpp (contract_of) says which buffers a
// rank passes, how many such blocks each holds and where the input sits;
// coll::check_args enforces it at every design's entry.
// Every algorithm takes CollArgs itself, so a factory only reads whichever
// CollSpec fields its design honours (plain_desc: none).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "coll/coll.hpp"
#include "coll/kind.hpp"

namespace dpml::sharp {
class SharpFabric;
}

namespace dpml::coll {

// Throws util::InvariantError listing the valid kind names.
CollKind coll_kind_by_name(const std::string& name);
bool is_coll_kind_name(const std::string& name);

// Generic runtime parameters for one collective invocation. `algo` is a
// registered descriptor name for the kind being dispatched; the remaining
// fields are interpreted per the descriptor's capability flags (a design
// without leaders simply ignores `leaders`, etc.).
struct CollSpec {
  std::string algo = "auto";
  int leaders = 4;
  int pipeline_k = 1;
  InterAlgo inter = InterAlgo::automatic;
  sharp::SharpFabric* fabric = nullptr;  // required by needs_fabric designs

  // Human-readable label, e.g. "dpml(l=16,k=4)"; consults the registry's
  // capability flags to decide which parameters are significant.
  std::string label(CollKind kind) const;
};

// Capability flags: what a design needs from the platform and which CollSpec
// parameters it honours. The tuner and selection layers drive sweeps and
// serialization off these instead of hardcoded per-algorithm knowledge.
struct CollCaps {
  bool needs_fabric = false;        // requires an attached SharpFabric
  bool uses_leaders = false;        // honours CollSpec::leaders
  bool supports_pipelining = false; // honours CollSpec::pipeline_k
  bool world_only = false;          // hierarchical: needs the world comm
  bool tunable = false;             // part of the default tuning sweep
  int min_comm_size = 1;
  // Only tuned at or below this payload (e.g. the SHArP designs' useful
  // range); dispatching larger payloads explicitly is still allowed.
  std::size_t max_tune_bytes = std::numeric_limits<std::size_t>::max();
};

struct CollDescriptor {
  std::string name;                      // unique within the kind
  CollKind kind = CollKind::allreduce;
  CollCaps caps;
  std::function<sim::CoTask<void>(CollArgs, const CollSpec&)> make;
};

class CollRegistry {
 public:
  static CollRegistry& instance();

  // Throws util::InvariantError on a duplicate (kind, name).
  void add(CollDescriptor d);

  // nullptr when (kind, name) is not registered.
  const CollDescriptor* find(CollKind kind, const std::string& name) const;
  // Throws util::InvariantError listing every registered name of `kind`.
  const CollDescriptor& at(CollKind kind, const std::string& name) const;

  // Registration order (stable across runs: built-ins are anchored in a
  // fixed sequence).
  std::vector<const CollDescriptor*> list(CollKind kind) const;
  std::vector<std::string> names(CollKind kind) const;

 private:
  // deque: descriptor addresses stay valid across add().
  std::deque<CollDescriptor> entries_;
};

// Registers a descriptor; declare as a namespace-scope static in the
// algorithm's translation unit:
//   static const CollRegistration reg{
//       plain_desc("rd", CollKind::allreduce, allreduce_recursive_doubling)};
struct CollRegistration {
  explicit CollRegistration(CollDescriptor d);
};

// The descriptor of a design that reads nothing from the CollSpec: its
// factory hands the CollArgs straight to `fn`.
CollDescriptor plain_desc(std::string name, CollKind kind,
                          sim::CoTask<void> (*fn)(CollArgs),
                          CollCaps caps = {});

// Forces the built-in algorithm translation units (and their static
// CollRegistration objects) into the link; every registry accessor calls it,
// so user code never needs to. The core layer's selection stacks (e.g.
// "dpml-auto") register from src/core and ride along with any core usage.
void ensure_builtin_collectives();

// Link anchors, one per registering translation unit.
void link_flat_collectives();
void link_dpml_collectives();
void link_baseline_collectives();
void link_sharp_collectives();
void link_reduce_collectives();
void link_bcast_collectives();
void link_alltoall_collectives();
void link_group_collectives();

}  // namespace dpml::coll
