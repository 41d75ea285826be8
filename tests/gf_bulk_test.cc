// Tests for the bulk GF(2^8) kernels against the GF256::MulSlow oracle.

#include "gf/gf_bulk.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "gf/gf256.h"

namespace bdisk::gf {
namespace {

std::vector<std::uint8_t> RandomBytes(std::size_t n, Rng* rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng->Uniform(256));
  return out;
}

TEST(GFBulkTest, MulTableMatchesMulSlowExhaustively) {
  for (unsigned c = 0; c < 256; ++c) {
    const std::uint8_t* table = GFBulk::MulTable(static_cast<std::uint8_t>(c));
    for (unsigned x = 0; x < 256; ++x) {
      ASSERT_EQ(table[x],
                GF256::MulSlow(static_cast<std::uint8_t>(c),
                               static_cast<std::uint8_t>(x)))
          << "c=" << c << " x=" << x;
    }
  }
}

TEST(GFBulkTest, MatrixMulAccumulateMatchesMulSlowOnRandomInputs) {
  Rng rng(10);
  for (std::size_t n : {1u, 3u, 8u, 100u, 4096u}) {
    const auto src = RandomBytes(n, &rng);
    const auto base = RandomBytes(n, &rng);
    for (unsigned c = 0; c < 256; c += 17) {
      const auto coeff = static_cast<std::uint8_t>(c);
      auto dst = base;
      // A 1 x 1 product: one destination, one source.
      std::uint8_t* dsts[] = {dst.data()};
      const std::uint8_t* srcs[] = {src.data()};
      const std::uint8_t* coeffs[] = {&coeff};
      GFBulk::MatrixMulAccumulate(dsts, srcs, coeffs, 1, 1, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[i],
                  static_cast<std::uint8_t>(base[i] ^
                                            GF256::MulSlow(coeff, src[i])))
            << "n=" << n << " c=" << c << " i=" << i;
      }
    }
  }
}

TEST(GFBulkTest, AccumulatingAllCoefficientsIsLinear) {
  // sum_c (c * src) over a set of coefficients equals (xor of coefficients)
  // * src — accumulation must respect field linearity. One 1 x 4 product
  // whose four sources are the same block.
  Rng rng(11);
  const std::size_t n = 512;
  const auto src = RandomBytes(n, &rng);
  const std::uint8_t row[] = {0x03, 0x1D, 0x80, 0xFF};
  std::vector<std::uint8_t> acc(n, 0);
  std::uint8_t* dsts[] = {acc.data()};
  const std::uint8_t* srcs[] = {src.data(), src.data(), src.data(),
                                src.data()};
  const std::uint8_t* coeffs[] = {row};
  GFBulk::MatrixMulAccumulate(dsts, srcs, coeffs, 1, 4, n);
  std::uint8_t combined = 0;
  for (std::uint8_t c : row) combined ^= c;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(acc[i], GF256::MulSlow(combined, src[i])) << "i=" << i;
  }
}

}  // namespace
}  // namespace bdisk::gf
