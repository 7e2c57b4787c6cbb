#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simmpi/datatype.hpp"
#include "simmpi/verify.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpml::simmpi {
namespace {

template <typename T>
std::vector<std::byte> pack(const std::vector<T>& v) {
  std::vector<std::byte> out(v.size() * sizeof(T));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

template <typename T>
std::vector<T> unpack(const std::vector<std::byte>& b) {
  std::vector<T> out(b.size() / sizeof(T));
  std::memcpy(out.data(), b.data(), b.size());
  return out;
}

TEST(Dtype, Sizes) {
  EXPECT_EQ(dtype_size(Dtype::f32), 4u);
  EXPECT_EQ(dtype_size(Dtype::f64), 8u);
  EXPECT_EQ(dtype_size(Dtype::i32), 4u);
  EXPECT_EQ(dtype_size(Dtype::i64), 8u);
  EXPECT_EQ(dtype_size(Dtype::u8), 1u);
  EXPECT_STREQ(dtype_name(Dtype::f64), "f64");
}

TEST(Reduce, SumF32) {
  auto acc = pack<float>({1.f, 2.f, 3.f});
  auto in = pack<float>({10.f, 20.f, 30.f});
  reduce_inplace(ReduceOp::sum, Dtype::f32, 3, acc, in);
  EXPECT_EQ(unpack<float>(acc), (std::vector<float>{11.f, 22.f, 33.f}));
}

TEST(Reduce, MinMaxI32) {
  auto acc = pack<std::int32_t>({5, -2, 7});
  auto in = pack<std::int32_t>({3, 0, 9});
  auto acc2 = acc;
  reduce_inplace(ReduceOp::min, Dtype::i32, 3, acc, in);
  EXPECT_EQ(unpack<std::int32_t>(acc), (std::vector<std::int32_t>{3, -2, 7}));
  reduce_inplace(ReduceOp::max, Dtype::i32, 3, acc2, in);
  EXPECT_EQ(unpack<std::int32_t>(acc2), (std::vector<std::int32_t>{5, 0, 9}));
}

TEST(Reduce, ProdF64) {
  auto acc = pack<double>({2.0, 3.0});
  auto in = pack<double>({4.0, 0.5});
  reduce_inplace(ReduceOp::prod, Dtype::f64, 2, acc, in);
  EXPECT_EQ(unpack<double>(acc), (std::vector<double>{8.0, 1.5}));
}

TEST(Reduce, BitwiseI64) {
  auto acc = pack<std::int64_t>({0b1100});
  auto in = pack<std::int64_t>({0b1010});
  auto acc2 = acc;
  reduce_inplace(ReduceOp::band, Dtype::i64, 1, acc, in);
  EXPECT_EQ(unpack<std::int64_t>(acc)[0], 0b1000);
  reduce_inplace(ReduceOp::bor, Dtype::i64, 1, acc2, in);
  EXPECT_EQ(unpack<std::int64_t>(acc2)[0], 0b1110);
}

TEST(Reduce, BitwiseOnFloatThrows) {
  auto acc = pack<float>({1.f});
  auto in = pack<float>({2.f});
  EXPECT_THROW(reduce_inplace(ReduceOp::band, Dtype::f32, 1, acc, in),
               util::InvariantError);
}

TEST(Reduce, EmptySpansAreNoop) {
  reduce_inplace(ReduceOp::sum, Dtype::f32, 128, {}, {});  // must not crash
}

TEST(Reduce, SizeMismatchThrows) {
  auto acc = pack<float>({1.f, 2.f});
  auto in = pack<float>({1.f});
  EXPECT_THROW(reduce_inplace(ReduceOp::sum, Dtype::f32, 2, acc, in),
               util::InvariantError);
}

TEST(Reduce, ZeroCount) {
  std::vector<std::byte> empty;
  reduce_inplace(ReduceOp::sum, Dtype::f32, 0, empty, empty);
}

TEST(Op, BuiltinAndUser) {
  Op sum = ReduceOp::sum;
  EXPECT_FALSE(sum.is_user());
  EXPECT_EQ(sum.name(), "sum");

  // User op: acc = acc - in, elementwise on f32.
  Op user{UserOpFn([](Dtype dt, std::size_t count, MutBytes acc, ConstBytes in) {
    ASSERT_EQ(dt, Dtype::f32);
    for (std::size_t i = 0; i < count; ++i) {
      float a;
      float b;
      std::memcpy(&a, acc.data() + i * 4, 4);
      std::memcpy(&b, in.data() + i * 4, 4);
      a -= b;
      std::memcpy(acc.data() + i * 4, &a, 4);
    }
  })};
  EXPECT_TRUE(user.is_user());
  auto acc = pack<float>({10.f});
  auto in = pack<float>({4.f});
  user.apply(Dtype::f32, 1, acc, in);
  EXPECT_EQ(unpack<float>(acc)[0], 6.f);
}

TEST(Verify, OperandsAreDeterministic) {
  auto a = make_operand(Dtype::f32, 64, 3, ReduceOp::sum, 7);
  auto b = make_operand(Dtype::f32, 64, 3, ReduceOp::sum, 7);
  EXPECT_EQ(a, b);
  auto c = make_operand(Dtype::f32, 64, 4, ReduceOp::sum, 7);
  EXPECT_NE(a, c);
}

TEST(Verify, ReferenceMatchesManualFold) {
  const std::size_t n = 16;
  auto ref = reference_allreduce(Dtype::i64, n, 5, ReduceOp::sum, 3);
  std::vector<std::int64_t> acc(n, 0);
  for (int r = 0; r < 5; ++r) {
    auto op = unpack<std::int64_t>(make_operand(Dtype::i64, n, r, ReduceOp::sum, 3));
    for (std::size_t i = 0; i < n; ++i) acc[i] += op[i];
  }
  EXPECT_EQ(unpack<std::int64_t>(ref), acc);
}

TEST(Verify, FloatSumsAreOrderIndependent) {
  // Operand magnitudes are capped so that f32 sums over many ranks stay
  // exactly representable: fold in reverse order and compare bitwise.
  const std::size_t n = 32;
  const int p = 64;
  auto fwd = reference_allreduce(Dtype::f32, n, p, ReduceOp::sum, 5);
  std::vector<std::byte> rev = make_operand(Dtype::f32, n, p - 1, ReduceOp::sum, 5);
  for (int r = p - 2; r >= 0; --r) {
    auto in = make_operand(Dtype::f32, n, r, ReduceOp::sum, 5);
    reduce_inplace(ReduceOp::sum, Dtype::f32, n, rev, in);
  }
  EXPECT_EQ(fwd, rev);
}

// ---------------------------------------------------------------------------
// Bit-identity locks: FNV-1a digests of the operand writer and of the fold
// kernels over every (dtype, op), at a count that is no multiple of any
// vector width. A rewrite of either kernel must reproduce these bytes.

constexpr Dtype kDtypes[] = {Dtype::f32, Dtype::f64, Dtype::i32, Dtype::i64,
                             Dtype::u8};
constexpr ReduceOp kOps[] = {ReduceOp::sum, ReduceOp::prod, ReduceOp::min,
                             ReduceOp::max, ReduceOp::band, ReduceOp::bor};
constexpr std::size_t kRagged = 1001;

std::uint64_t fnv1a(ConstBytes b) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte x : b) {
    h ^= std::to_integer<std::uint64_t>(x);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool is_float(Dtype dt) { return dt == Dtype::f32 || dt == Dtype::f64; }

template <typename T>
void put(std::vector<std::byte>& buf, std::size_t i, T v) {
  std::memcpy(buf.data() + i * sizeof(T), &v, sizeof(T));
}

// A fold operand independent of make_operand: fractional floats that round
// when multiplied, and integers whose four-way sums and products stay in
// range (u8 wraps, which is defined).
std::vector<std::byte> fold_operand(Dtype dt, ReduceOp op, int rank) {
  std::vector<std::byte> buf(kRagged * dtype_size(dt));
  util::SplitMix64 rng(11, static_cast<std::uint64_t>(rank));
  for (std::size_t i = 0; i < kRagged; ++i) {
    const std::uint64_t h = rng.next_u64();
    const double x =
        std::ldexp(static_cast<double>(h >> 11), -40) - 4096.0;  // +-4096
    const std::int64_t bound = op == ReduceOp::prod ? 100 : 1 << 20;
    const std::int64_t n =
        op == ReduceOp::band || op == ReduceOp::bor
            ? static_cast<std::int64_t>(h >> 1)
            : static_cast<std::int64_t>(
                  h % static_cast<std::uint64_t>(2 * bound + 1)) - bound;
    switch (dt) {
      case Dtype::f32: put(buf, i, static_cast<float>(x)); break;
      case Dtype::f64: put(buf, i, x); break;
      case Dtype::i32: put(buf, i, static_cast<std::int32_t>(n)); break;
      case Dtype::i64: put(buf, i, n); break;
      case Dtype::u8: put(buf, i, static_cast<std::uint8_t>(h)); break;
    }
  }
  return buf;
}

TEST(KernelLock, OperandDigests) {
  // [dtype][op][seed 1, seed 9] over rank 5's operand.
  constexpr std::uint64_t kLocked[5][6][2] = {
      {// f32
       {0x9a9cb300541af475ull, 0x9bd48270d8e7b3f5ull},
       {0x11ea560ed5248ca5ull, 0x7e29846f87e2ccd8ull},
       {0x9a9cb300541af475ull, 0x9bd48270d8e7b3f5ull},
       {0x9a9cb300541af475ull, 0x9bd48270d8e7b3f5ull},
       {0x581d822b28ef4914ull, 0x6c7dcc566773ee35ull},
       {0x581d822b28ef4914ull, 0x6c7dcc566773ee35ull}},
      {// f64
       {0x13e4a2c813bfc7dull, 0xca4206be04b6f65dull},
       {0x979acbfe33bd3165ull, 0x6f78988311125338ull},
       {0x13e4a2c813bfc7dull, 0xca4206be04b6f65dull},
       {0x13e4a2c813bfc7dull, 0xca4206be04b6f65dull},
       {0x36d046e26f1ce933ull, 0xdc540e63170ea08full},
       {0x36d046e26f1ce933ull, 0xdc540e63170ea08full}},
      {// i32
       {0xf0ec4569c3a40d02ull, 0x2a9a87245c8e2a44ull},
       {0xd93f6deaf69923e7ull, 0x6f4f2ac0deadf2a4ull},
       {0xf0ec4569c3a40d02ull, 0x2a9a87245c8e2a44ull},
       {0xf0ec4569c3a40d02ull, 0x2a9a87245c8e2a44ull},
       {0x2a7d2a29077475ecull, 0xafde41da0bffee79ull},
       {0x2a7d2a29077475ecull, 0xafde41da0bffee79ull}},
      {// i64
       {0xfe831157d166322aull, 0xb0d4295f5b2a0734ull},
       {0x98d42561771092a7ull, 0xe5c30a81cbdeae24ull},
       {0xfe831157d166322aull, 0xb0d4295f5b2a0734ull},
       {0xfe831157d166322aull, 0xb0d4295f5b2a0734ull},
       {0xe297e565d63511bcull, 0x386b5b9f36938d89ull},
       {0xe297e565d63511bcull, 0x386b5b9f36938d89ull}},
      {// u8
       {0x6673cfe8ecf4b7c2ull, 0x5b6975ecaa8bf9eeull},
       {0xc3dfcf3bb7ece2efull, 0x6126523e9b3a2decull},
       {0x6673cfe8ecf4b7c2ull, 0x5b6975ecaa8bf9eeull},
       {0x6673cfe8ecf4b7c2ull, 0x5b6975ecaa8bf9eeull},
       {0x4958af26c7b4e302ull, 0xc33520e4e3ea5a8full},
       {0x4958af26c7b4e302ull, 0xc33520e4e3ea5a8full}},
  };
  for (std::size_t d = 0; d < 5; ++d) {
    for (std::size_t o = 0; o < 6; ++o) {
      for (std::size_t s = 0; s < 2; ++s) {
        const std::uint64_t seed = s == 0 ? 1 : 9;
        const auto buf = make_operand(kDtypes[d], kRagged, 5, kOps[o], seed);
        ASSERT_EQ(buf.size(), kRagged * dtype_size(kDtypes[d]));
        EXPECT_EQ(fnv1a(buf), kLocked[d][o][s])
            << "operand " << d << " " << o << " " << s << " 0x" << std::hex
            << fnv1a(buf);
      }
    }
  }
}

TEST(KernelLock, FoldDigests) {
  // [dtype][op]: ranks 0..3 folded in order; 0 marks the bitwise ops on
  // floating-point dtypes, which throw.
  constexpr std::uint64_t kLocked[5][6] = {
      {// f32
       0xa99dd3a3878147d4ull, 0x7f367568a918092eull, 0x9de9d9a66b3b35d5ull,
       0xe86aa965ca5e54e7ull, 0u, 0u},
      {// f64
       0x2119821f80435b9aull, 0x8f9ab1b4f05fc7d3ull, 0x77b279d0abd4f60bull,
       0xba92656880a615b1ull, 0u, 0u},
      {// i32
       0x9edbdf916380e38bull, 0x3b3287fc61d23be6ull, 0x193e41fb3260f335ull,
       0x5dd79cbb6c8f1fb2ull, 0xfcd5aa1806a307adull, 0x57572353902866d8ull},
      {// i64
       0x2f60145a109444efull, 0xb495e70ec316d76eull, 0x89b2b1a5b9ece919ull,
       0xec0c398e87c3da1aull, 0x8f65a111011d1376ull, 0xe4b25f96d7a12146ull},
      {// u8
       0x51149ac1623c188ull, 0xa197be65882472adull, 0xca74f9006e51765cull,
       0x6db77484c7cf8d52ull, 0x7d223edb18b5b5cbull, 0x7ed6dcb498596600ull},
  };
  for (std::size_t d = 0; d < 5; ++d) {
    for (std::size_t o = 0; o < 6; ++o) {
      const Dtype dt = kDtypes[d];
      const ReduceOp op = kOps[o];
      std::vector<std::byte> acc = fold_operand(dt, op, 0);
      if (is_float(dt) && (op == ReduceOp::band || op == ReduceOp::bor)) {
        const std::vector<std::byte> before = acc;
        const std::vector<std::byte> in = fold_operand(dt, op, 1);
        EXPECT_THROW(reduce_inplace(op, dt, kRagged, acc, in),
                     util::InvariantError);
        EXPECT_EQ(acc, before) << "a rejected fold wrote its accumulator";
        EXPECT_EQ(kLocked[d][o], 0u);
        continue;
      }
      for (int r = 1; r < 4; ++r) {
        const std::vector<std::byte> in = fold_operand(dt, op, r);
        reduce_inplace(op, dt, kRagged, acc, in);
      }
      EXPECT_EQ(fnv1a(acc), kLocked[d][o])
          << "fold " << d << " " << o << " 0x" << std::hex << fnv1a(acc);
    }
  }
}

}  // namespace
}  // namespace dpml::simmpi
