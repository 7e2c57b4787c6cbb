// Deterministic random number generation.
//
// Every stochastic choice in the repository flows through SplitMix64 so that
// a (seed, stream) pair fully determines a run. The simulator itself is
// deterministic; randomness is used to fill data buffers, to drive synthetic
// workloads (miniAMR refinement decisions), and to realize machine
// perturbations (src/perturb).
//
// Seed-derivation scheme. Subsystems that need many independent draw
// streams from one user-facing seed derive them in two documented steps
// rather than ad hoc:
//
//   purpose seed  P = SplitMix64(seed, purpose).next_u64()
//   sub-stream    SplitMix64(P, (uint64(uint32(rank)) << 32) | uint32(op))
//
// where `purpose` is a small per-subsystem enum constant (e.g.
// perturb::Perturbation::Purpose: 1 = jitter, 2 = skew, 3 = stragglers) and
// `op` is a per-rank draw counter. Each (seed, purpose, rank, op) tuple thus
// names exactly one draw, independent of the event interleaving of other
// ranks — the property the run-to-run reproducibility tests lock in.
#pragma once

#include <cstdint>

namespace dpml::util {

// SplitMix64: tiny, fast, statistically solid for our purposes, and trivially
// seedable per (rank, stream) without correlation concerns.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  // Derive an independent stream: mixes `stream` into the seed.
  SplitMix64(std::uint64_t seed, std::uint64_t stream)
      : SplitMix64(seed ^ (0xbf58476d1ce4e5b9ull * (stream + 1))) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform in [0, 1).
  double next_double();

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

 private:
  std::uint64_t state_;
};

}  // namespace dpml::util
