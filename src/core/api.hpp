// Public entry point: one registry-backed dispatcher over every collective
// in the repository. This is the API the examples, tests, and benches
// program against; it mirrors what an MPI library's collective-selection
// layer does, generalized over the whole collective family (allreduce,
// rooted reduce, bcast, alltoall, the gather/scatter patterns, barrier).
//
// A design is a coll::CollSpec naming a registered algorithm plus its
// runtime parameters, e.g. allreduce "dpml" with leaders/pipeline_k, or
// "dpml-auto", the tuned per-size DPML choice registered here (the paper's
// "proposed" line, §6.4). run_collective(kind, args, spec) resolves the
// (kind, spec.algo) pair to a coll::CollDescriptor, validates the spec
// against the descriptor's capability flags (clear failures at dispatch
// instead of deep inside a phase), and runs the descriptor's coroutine.
#pragma once

#include <optional>
#include <string>

#include "coll/baselines.hpp"
#include "coll/coll.hpp"
#include "coll/dpml.hpp"
#include "coll/registry.hpp"
#include "coll/sharp_coll.hpp"
#include "sharp/sharp.hpp"

namespace dpml::core {

using CollKind = coll::CollKind;
using CollSpec = coll::CollSpec;

// Run one collective of `kind` with the given spec. SPMD: every rank of
// args.comm calls this with identical arguments. Spec validation (unknown
// algorithm, leaders/pipeline_k < 1, missing fabric) throws
// util::InvariantError synchronously, before the coroutine starts; leaders
// beyond the machine's ppn are clamped with a warning. When tracing is
// enabled on the machine, every rank's participation is recorded as a
// "<kind>" span labelled spec.label(kind), and per-(kind, algorithm)
// counters accumulate in Machine::collective_stats().
sim::CoTask<void> run_collective(CollKind kind, coll::CollArgs args,
                                 const CollSpec& spec);

// Non-blocking variant (MPI_Iallreduce-style): starts the collective as a
// background sub-operation of the calling rank and returns its completion
// flag; co_await flag->wait(), or sim::wait_all for a waitall.
std::shared_ptr<sim::Flag> start_collective(CollKind kind, coll::CollArgs args,
                                            const CollSpec& spec);

// True when `algo` of `kind` should be handed a SharpFabric: the designs
// that need one, and "dpml-auto", which routes small messages through it.
// Throws util::InvariantError on an unregistered name.
bool takes_fabric(CollKind kind, const std::string& algo);

// Whoever builds the Machine calls this once before running `spec`: when
// spec.algo takes a fabric, the cluster is SHArP-capable and the caller
// supplied none, it builds one on `m` into `fabric` (which must outlive
// every collective run with `spec`) and points spec.fabric at it.
void attach_fabric(simmpi::Machine& m, CollKind kind, CollSpec& spec,
                   std::optional<sharp::SharpFabric>& fabric);

}  // namespace dpml::core
