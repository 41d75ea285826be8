/// \file gf256.h
/// \brief Arithmetic in the Galois field GF(2^8).
///
/// Rabin's Information Dispersal Algorithm performs its dispersal and
/// reconstruction transformations "in the domain of a particular irreducible
/// polynomial" (paper, Section 2.1). We use GF(2^8) with the AES reduction
/// polynomial x^8 + x^4 + x^3 + x + 1 (0x11B), so that one field element is
/// one byte and a "block" of bytes is a vector over the field.
///
/// Multiplication and inversion are table-driven via discrete logarithms with
/// generator 3; tables are built once at static-initialization time.
///
/// These are the scalar (per-element) operations; whole-block columns — the
/// IDA hot path — use the bulk kernels in gf/gf_bulk.h instead.

#ifndef BDISK_GF_GF256_H_
#define BDISK_GF_GF256_H_

#include <array>
#include <cstdint>

namespace bdisk::gf {

/// \brief The GF(2^8) field operations.
///
/// All functions are static and branch-light; Add/Sub are XOR.
class GF256 {
 public:
  /// The reduction polynomial x^8 + x^4 + x^3 + x + 1.
  static constexpr std::uint16_t kPolynomial = 0x11B;
  /// A multiplicative generator of the field.
  static constexpr std::uint8_t kGenerator = 0x03;

  /// Field addition (XOR; identical to subtraction in characteristic 2).
  static std::uint8_t Add(std::uint8_t a, std::uint8_t b) { return a ^ b; }

  /// Field subtraction (same as addition).
  static std::uint8_t Sub(std::uint8_t a, std::uint8_t b) { return a ^ b; }

  /// Field multiplication.
  static std::uint8_t Mul(std::uint8_t a, std::uint8_t b) {
    if (a == 0 || b == 0) return 0;
    const unsigned s = tables().log[a] + tables().log[b];
    return tables().exp[s];  // exp table is doubled so no explicit mod 255.
  }

  /// Multiplicative inverse. `a` must be non-zero.
  static std::uint8_t Inv(std::uint8_t a);

  /// Slow bitwise ("Russian peasant") multiplication; reference
  /// implementation used to validate the tables in tests.
  static std::uint8_t MulSlow(std::uint8_t a, std::uint8_t b);

 private:
  struct Tables {
    // exp[i] = g^i for i in [0, 510), doubled to avoid a mod in Mul.
    std::array<std::uint8_t, 510> exp;
    // log[a] = discrete log of a (log[0] unused).
    std::array<std::uint16_t, 256> log;
  };

  static const Tables& tables();
};

}  // namespace bdisk::gf

#endif  // BDISK_GF_GF256_H_
