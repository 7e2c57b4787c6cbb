#include "simmpi/datatype.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace dpml::simmpi {

std::size_t dtype_size(Dtype dt) {
  switch (dt) {
    case Dtype::f32: return 4;
    case Dtype::f64: return 8;
    case Dtype::i32: return 4;
    case Dtype::i64: return 8;
    case Dtype::u8: return 1;
  }
  DPML_CHECK_MSG(false, "bad dtype");
  return 0;
}

const char* dtype_name(Dtype dt) {
  switch (dt) {
    case Dtype::f32: return "f32";
    case Dtype::f64: return "f64";
    case Dtype::i32: return "i32";
    case Dtype::i64: return "i64";
    case Dtype::u8: return "u8";
  }
  return "?";
}

const char* op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::sum: return "sum";
    case ReduceOp::prod: return "prod";
    case ReduceOp::min: return "min";
    case ReduceOp::max: return "max";
    case ReduceOp::band: return "band";
    case ReduceOp::bor: return "bor";
  }
  return "?";
}

namespace {

// acc[i] = f(acc[i], in[i]) over `count` elements of T, in 16-byte chunks
// staged through local arrays: the chunk loop has a fixed trip count and
// cannot alias, so it compiles to vector instructions at -O2 while each
// element still sees exactly the scalar operation (same bits).
template <typename T, typename F>
void fold(std::size_t count, std::byte* acc, const std::byte* in, F f) {
  constexpr std::size_t kLanes = 16 / sizeof(T);
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    T a[kLanes];
    T b[kLanes];
    std::memcpy(a, acc + i * sizeof(T), sizeof a);
    std::memcpy(b, in + i * sizeof(T), sizeof b);
    for (std::size_t j = 0; j < kLanes; ++j) a[j] = f(a[j], b[j]);
    std::memcpy(acc + i * sizeof(T), a, sizeof a);
  }
  for (; i < count; ++i) {
    T a;
    T b;
    std::memcpy(&a, acc + i * sizeof(T), sizeof(T));
    std::memcpy(&b, in + i * sizeof(T), sizeof(T));
    a = f(a, b);
    std::memcpy(acc + i * sizeof(T), &a, sizeof(T));
  }
}

template <typename T>
void combine_typed(ReduceOp op, std::size_t count, std::byte* acc,
                   const std::byte* in) {
  switch (op) {
    case ReduceOp::sum:
      return fold<T>(count, acc, in,
                     [](T a, T b) { return static_cast<T>(a + b); });
    case ReduceOp::prod:
      return fold<T>(count, acc, in,
                     [](T a, T b) { return static_cast<T>(a * b); });
    case ReduceOp::min:
      return fold<T>(count, acc, in, [](T a, T b) { return std::min(a, b); });
    case ReduceOp::max:
      return fold<T>(count, acc, in, [](T a, T b) { return std::max(a, b); });
    case ReduceOp::band:
    case ReduceOp::bor:
      if constexpr (std::is_integral_v<T>) {
        if (op == ReduceOp::band) {
          return fold<T>(count, acc, in,
                         [](T a, T b) { return static_cast<T>(a & b); });
        }
        return fold<T>(count, acc, in,
                       [](T a, T b) { return static_cast<T>(a | b); });
      } else {
        DPML_CHECK_MSG(false, "bitwise op on floating-point dtype");
      }
  }
}

}  // namespace

void reduce_inplace(ReduceOp op, Dtype dt, std::size_t count, MutBytes acc,
                    ConstBytes in) {
  if (acc.empty() && in.empty()) return;  // metadata-only run
  const std::size_t bytes = count * dtype_size(dt);
  DPML_CHECK_MSG(acc.size() == bytes && in.size() == bytes,
                 "reduce_inplace span size mismatch");
  if (count == 0) return;
  switch (dt) {
    case Dtype::f32: combine_typed<float>(op, count, acc.data(), in.data()); break;
    case Dtype::f64: combine_typed<double>(op, count, acc.data(), in.data()); break;
    case Dtype::i32: combine_typed<std::int32_t>(op, count, acc.data(), in.data()); break;
    case Dtype::i64: combine_typed<std::int64_t>(op, count, acc.data(), in.data()); break;
    case Dtype::u8: combine_typed<std::uint8_t>(op, count, acc.data(), in.data()); break;
  }
}

void Op::apply(Dtype dt, std::size_t count, MutBytes acc, ConstBytes in) const {
  if (user_) {
    if (acc.empty() && in.empty()) return;
    user_(dt, count, acc, in);
    return;
  }
  reduce_inplace(builtin_, dt, count, acc, in);
}

void Op::apply_left(Dtype dt, std::size_t count, MutBytes acc,
                    ConstBytes in) const {
  if (commutative()) {
    apply(dt, count, acc, in);
    return;
  }
  if (acc.empty() && in.empty()) return;
  // tmp = in, tmp = tmp (op) acc, acc = tmp.
  std::vector<std::byte> tmp(in.begin(), in.end());
  user_(dt, count, MutBytes{tmp}, ConstBytes{acc.data(), acc.size()});
  DPML_CHECK(tmp.size() == acc.size());
  std::memcpy(acc.data(), tmp.data(), tmp.size());
}

std::string Op::name() const {
  return user_ ? "user" : op_name(builtin_);
}

}  // namespace dpml::simmpi
