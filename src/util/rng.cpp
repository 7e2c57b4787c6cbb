#include "util/rng.hpp"

#include "util/error.hpp"

namespace dpml::util {

std::uint64_t SplitMix64::next_below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % bound;
}

double SplitMix64::next_double() {
  return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
}

std::int64_t SplitMix64::next_in(std::int64_t lo, std::int64_t hi) {
  DPML_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

}  // namespace dpml::util
