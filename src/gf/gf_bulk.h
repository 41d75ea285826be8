/// \file gf_bulk.h
/// \brief The bulk GF(2^8) kernel: a matrix product over whole blocks.
///
/// IDA dispersal and reconstruction (paper Figure 3) are matrix products in
/// which each output block is a linear combination of m input blocks:
///
///   dst[k] ^= XOR over j of coeff[j] * src_j[k]   for every byte k
///
/// MatrixMulAccumulate computes all n_dst output blocks over the same n_src
/// input blocks in one call, tiling the byte range so each source tile is
/// read once per tile round instead of once per destination, and each
/// destination chunk is read and written once per tile instead of once per
/// source — O(n_dst + n_src) block traffic where an unfused loop pays
/// O(n_dst * n_src). Matrix::Inverse clears each pivot column with one call
/// of it, too (gf/matrix.h).
///
/// The call routes through gf::Dispatch to the fastest kernel
/// implementation the CPU supports (gf/gf_dispatch.h): GFNI's VGF2P8MULB,
/// split low/high-nibble 16-entry tables driven by SSSE3 PSHUFB / AVX2
/// VPSHUFB / NEON TBL, which multiply 16–32 bytes per instruction pair, or
/// the portable 256x256 product-table kernel as the fallback. Coefficients
/// 0 and 1 degenerate to a skipped source / a plain XOR on every path.
///
/// GF256::MulSlow remains the reference oracle; tests assert every kernel
/// implementation agrees with it byte-for-byte (tests/gf_simd_test.cc).

#ifndef BDISK_GF_GF_BULK_H_
#define BDISK_GF_GF_BULK_H_

#include <cstddef>
#include <cstdint>

namespace bdisk::gf {

/// \brief The product table and the dispatched matrix-block kernel.
///
/// Both functions are static and thread-safe (tables and the dispatch
/// selection are built on first access under the C++ static-initialization
/// guarantee).
class GFBulk {
 public:
  /// The 256-entry product row for `coeff`: MulTable(c)[x] == c * x.
  static const std::uint8_t* MulTable(std::uint8_t coeff);

  /// \brief Fused matrix-block multiply-accumulate — the whole-codec loop.
  ///
  /// For every destination block i in [0, n_dst):
  ///
  ///   dsts[i][k] ^= XOR over j of coeffs[i][j] * srcs[j][k]
  ///
  /// for every byte k in [0, block_size). `coeffs[i]` points at the i-th
  /// matrix row (n_src coefficients, e.g. Matrix::RowData). Destination
  /// blocks must be distinct from each other and from every source block;
  /// source blocks may repeat.
  ///
  /// Equivalent to n_dst * n_src single-source calls, but tiled so the
  /// source working set stays cache-resident and each destination chunk is
  /// loaded/stored once per tile, with the accumulator held in registers
  /// across sources on the SIMD paths.
  static void MatrixMulAccumulate(std::uint8_t* const* dsts,
                                  const std::uint8_t* const* srcs,
                                  const std::uint8_t* const* coeffs,
                                  std::size_t n_dst, std::size_t n_src,
                                  std::size_t block_size);
};

}  // namespace bdisk::gf

#endif  // BDISK_GF_GF_BULK_H_
