// Unit and property tests for GF(2^8) arithmetic.

#include "gf/gf256.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace bdisk::gf {
namespace {

TEST(GF256Test, AddIsXor) {
  EXPECT_EQ(GF256::Add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(GF256::Add(0, 0x7F), 0x7F);
  EXPECT_EQ(GF256::Sub(0x53, 0xCA), GF256::Add(0x53, 0xCA));
}

TEST(GF256Test, MulZeroAndOne) {
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(GF256::Mul(x, 0), 0);
    EXPECT_EQ(GF256::Mul(0, x), 0);
    EXPECT_EQ(GF256::Mul(x, 1), x);
    EXPECT_EQ(GF256::Mul(1, x), x);
  }
}

TEST(GF256Test, KnownAesProducts) {
  // Classic AES-field test vectors (poly 0x11B).
  EXPECT_EQ(GF256::Mul(0x53, 0xCA), 0x01);
  EXPECT_EQ(GF256::Mul(0x02, 0x87), 0x15);
  EXPECT_EQ(GF256::Mul(0x57, 0x13), 0xFE);
}

TEST(GF256Test, TableMulMatchesBitwiseMulExhaustively) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(GF256::Mul(static_cast<std::uint8_t>(a),
                           static_cast<std::uint8_t>(b)),
                GF256::MulSlow(static_cast<std::uint8_t>(a),
                               static_cast<std::uint8_t>(b)))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(GF256Test, MulCommutative) {
  for (unsigned a = 0; a < 256; a += 3) {
    for (unsigned b = 0; b < 256; b += 5) {
      EXPECT_EQ(GF256::Mul(static_cast<std::uint8_t>(a),
                           static_cast<std::uint8_t>(b)),
                GF256::Mul(static_cast<std::uint8_t>(b),
                           static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(GF256Test, MulAssociative) {
  for (unsigned a = 1; a < 256; a += 17) {
    for (unsigned b = 1; b < 256; b += 13) {
      for (unsigned c = 1; c < 256; c += 11) {
        const auto x = static_cast<std::uint8_t>(a);
        const auto y = static_cast<std::uint8_t>(b);
        const auto z = static_cast<std::uint8_t>(c);
        EXPECT_EQ(GF256::Mul(GF256::Mul(x, y), z),
                  GF256::Mul(x, GF256::Mul(y, z)));
      }
    }
  }
}

TEST(GF256Test, DistributesOverAdd) {
  for (unsigned a = 0; a < 256; a += 7) {
    for (unsigned b = 0; b < 256; b += 9) {
      for (unsigned c = 0; c < 256; c += 15) {
        const auto x = static_cast<std::uint8_t>(a);
        const auto y = static_cast<std::uint8_t>(b);
        const auto z = static_cast<std::uint8_t>(c);
        EXPECT_EQ(GF256::Mul(x, GF256::Add(y, z)),
                  GF256::Add(GF256::Mul(x, y), GF256::Mul(x, z)));
      }
    }
  }
}

TEST(GF256Test, InverseIsTwoSided) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    const std::uint8_t inv = GF256::Inv(x);
    EXPECT_EQ(GF256::Mul(x, inv), 1) << "a=" << a;
    EXPECT_EQ(GF256::Mul(inv, x), 1) << "a=" << a;
  }
}

TEST(GF256Test, FermatOrder) {
  // a^255 == 1 for all non-zero a, by repeated table multiplication.
  for (unsigned a = 1; a < 256; ++a) {
    std::uint8_t power = 1;
    for (int e = 0; e < 255; ++e) {
      power = GF256::Mul(power, static_cast<std::uint8_t>(a));
    }
    EXPECT_EQ(power, 1) << "a=" << a;
  }
}

TEST(GF256Test, GeneratorHasFullOrder) {
  // Powers of the generator must hit every non-zero element exactly once.
  bool seen[256] = {false};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    EXPECT_FALSE(seen[x]);
    seen[x] = true;
    x = GF256::Mul(x, GF256::kGenerator);
  }
  EXPECT_EQ(x, 1);  // Full cycle.
}

}  // namespace
}  // namespace bdisk::gf
