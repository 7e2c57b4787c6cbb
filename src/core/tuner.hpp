// Empirical configuration tuner (paper §6.4).
//
// "We performed empirical evaluation of different configurations on the four
// clusters and chose the best configuration for each message size." This
// tuner does exactly that: sweep a candidate set (leader counts, pipeline
// depths, SHArP designs) at a given shape and message size and return the
// fastest. The Figure 9/10 benches use it to produce the paper's "proposed"
// line; adapt::AdaptiveTable::tune runs it per probe size to build a
// persistable level-0 table; it is also part of the public API so
// downstream users can tune for their own simulated platforms.
//
// Candidates come from the collective registry: every descriptor of the
// requested kind whose caps mark it tunable contributes, expanded through
// its capability flags (uses_leaders -> leader sweep, supports_pipelining ->
// pipelined variants, needs_fabric/max_tune_bytes -> fabric gating).
#pragma once

#include <vector>

#include "core/measure.hpp"

namespace dpml::core {

struct TunedEntry {
  coll::CollSpec spec;
  double avg_us = 0.0;
};

struct TuneResult {
  TunedEntry best;
  std::vector<TunedEntry> all;  // every candidate, fastest first
};

// Candidate sweep for `kind` built from the registry's tunable descriptors.
// For allreduce this reproduces the paper's sweep exactly: DPML with
// leaders in {1,2,4,8,16} (clamped to ppn, deduplicated), pipelined
// variants when the per-leader partition is still >= 64 KiB, and both
// SHArP designs when a fabric exists and the message fits their tuning
// range.
std::vector<coll::CollSpec> registry_candidates(CollKind kind, int ppn,
                                                bool has_sharp,
                                                std::size_t bytes);

TuneResult tune_collective(CollKind kind, const net::ClusterConfig& cfg,
                           int nodes, int ppn, std::size_t bytes,
                           const std::vector<coll::CollSpec>& candidates,
                           const MeasureOptions& opt = {});

// Convenience: registry candidate set.
TuneResult tune_collective(CollKind kind, const net::ClusterConfig& cfg,
                           int nodes, int ppn, std::size_t bytes,
                           const MeasureOptions& opt = {});

}  // namespace dpml::core
