#include "gf/gf256.h"

#include "common/check.h"

namespace bdisk::gf {

const GF256::Tables& GF256::tables() {
  static const Tables kTables = [] {
    Tables t{};
    std::uint16_t x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      t.exp[i] = static_cast<std::uint8_t>(x);
      t.log[x] = static_cast<std::uint16_t>(i);
      // x *= generator. With generator 3 = x + 1: x*3 = (x*2) xor x.
      std::uint16_t x2 = static_cast<std::uint16_t>(x << 1);
      if (x2 & 0x100) x2 ^= kPolynomial;
      x = static_cast<std::uint16_t>(x2 ^ x);
    }
    for (unsigned i = 255; i < 510; ++i) {
      t.exp[i] = t.exp[i - 255];
    }
    t.log[0] = 0;  // Unused sentinel; Mul and Inv guard against zero.
    return t;
  }();
  return kTables;
}

std::uint8_t GF256::Inv(std::uint8_t a) {
  BDISK_CHECK(a != 0);
  return tables().exp[255 - tables().log[a]];
}

std::uint8_t GF256::MulSlow(std::uint8_t a, std::uint8_t b) {
  std::uint16_t acc = 0;
  std::uint16_t aa = a;
  std::uint8_t bb = b;
  while (bb != 0) {
    if (bb & 1) acc ^= aa;
    aa = static_cast<std::uint16_t>(aa << 1);
    if (aa & 0x100) aa ^= kPolynomial;
    bb >>= 1;
  }
  return static_cast<std::uint8_t>(acc);
}

}  // namespace bdisk::gf
