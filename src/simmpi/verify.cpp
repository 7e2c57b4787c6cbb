#include "simmpi/verify.hpp"

#include <cstring>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpml::simmpi {

namespace {

// One pass writing `count` elements of T, element i being element(the
// i-th draw): the dtype and the op are resolved before the loop, not per
// element.
template <typename T, typename Element>
void write_elements(std::byte* dst, std::size_t count, util::SplitMix64 rng,
                    Element element) {
  for (std::size_t i = 0; i < count; ++i) {
    const T v = element(rng.next_u64());
    std::memcpy(dst + i * sizeof(T), &v, sizeof(T));
  }
}

template <typename Value>
void write_operand(Dtype dt, std::byte* dst, std::size_t count,
                   util::SplitMix64 rng, Value value) {
  switch (dt) {
    case Dtype::f32:
      return write_elements<float>(dst, count, rng, [&](std::uint64_t h) {
        return static_cast<float>(value(h));
      });
    case Dtype::f64:
      return write_elements<double>(dst, count, rng, [&](std::uint64_t h) {
        return static_cast<double>(value(h));
      });
    case Dtype::i32:
      return write_elements<std::int32_t>(
          dst, count, rng,
          [&](std::uint64_t h) { return static_cast<std::int32_t>(value(h)); });
    case Dtype::i64:
      return write_elements<std::int64_t>(dst, count, rng, value);
    case Dtype::u8:
      return write_elements<std::uint8_t>(
          dst, count, rng, [&](std::uint64_t h) {
            return static_cast<std::uint8_t>(value(h) & 0x7f);
          });
  }
}

}  // namespace

void fill_operand(MutBytes out, Dtype dt, std::size_t count, int rank,
                  ReduceOp op, std::uint64_t seed) {
  DPML_CHECK_MSG(out.size() == count * dtype_size(dt),
                 "fill_operand span size mismatch");
  const util::SplitMix64 rng(seed, static_cast<std::uint64_t>(rank));
  std::byte* dst = out.data();
  switch (op) {
    case ReduceOp::sum:
    case ReduceOp::min:
    case ReduceOp::max:
      return write_operand(dt, dst, count, rng, [](std::uint64_t h) {
        return static_cast<std::int64_t>(h % 17) - 8;
      });
    case ReduceOp::prod:
      // Powers of two stay exact in floating point; keep products small.
      return write_operand(dt, dst, count, rng, [](std::uint64_t h) {
        return 1 + static_cast<std::int64_t>(h % 2);
      });
    case ReduceOp::band:
    case ReduceOp::bor:
      return write_operand(dt, dst, count, rng, [](std::uint64_t h) {
        return static_cast<std::int64_t>(h % 256);
      });
  }
}

std::vector<std::byte> make_operand(Dtype dt, std::size_t count, int rank,
                                    ReduceOp op, std::uint64_t seed) {
  std::vector<std::byte> buf(count * dtype_size(dt));
  fill_operand(buf, dt, count, rank, op, seed);
  return buf;
}

std::vector<std::byte> reference_allreduce(Dtype dt, std::size_t count,
                                           int nranks, ReduceOp op,
                                           std::uint64_t seed) {
  DPML_CHECK(nranks >= 1);
  std::vector<std::byte> acc = make_operand(dt, count, 0, op, seed);
  for (int r = 1; r < nranks; ++r) {
    const std::vector<std::byte> in = make_operand(dt, count, r, op, seed);
    reduce_inplace(op, dt, count, MutBytes{acc}, ConstBytes{in});
  }
  return acc;
}

}  // namespace dpml::simmpi
