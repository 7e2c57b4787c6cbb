// Test-data generation and reference reductions.
//
// Operands are generated so that every supported reduction is *bit-exact*
// regardless of combination order: integer-valued floats with small
// magnitude (sums stay far below the mantissa limit; products are powers of
// two). This lets tests compare any algorithm's output byte-for-byte against
// a serial reference without floating-point tolerance games.
#pragma once

#include <cstdint>
#include <vector>

#include "simmpi/datatype.hpp"

namespace dpml::simmpi {

// Writes the deterministic operand of `rank` into `out`, which holds
// exactly count * dtype_size(dt) bytes; values are chosen per-op so the
// global reduction is exactly representable (see file comment). Every byte
// is written, so `out` may start uninitialised.
void fill_operand(MutBytes out, Dtype dt, std::size_t count, int rank,
                  ReduceOp op, std::uint64_t seed = 1);

// fill_operand into a new buffer.
std::vector<std::byte> make_operand(Dtype dt, std::size_t count, int rank,
                                    ReduceOp op, std::uint64_t seed = 1);

// Serial reference: fold operands of ranks [0, nranks) in rank order.
std::vector<std::byte> reference_allreduce(Dtype dt, std::size_t count,
                                           int nranks, ReduceOp op,
                                           std::uint64_t seed = 1);

}  // namespace dpml::simmpi
