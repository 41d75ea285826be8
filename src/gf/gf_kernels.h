/// \file gf_kernels.h
/// \brief Internal registry of GF(2^8) bulk-kernel implementations.
///
/// Each implementation (generic table-driven, SSSE3, AVX2, GFNI, NEON) fills
/// one KernelTable with one entry point: the fused matrix-block product
/// that dispersal, reconstruction and matrix inversion all run. GFNI
/// multiplies in the field directly (VGF2P8MULB reduces by this field's
/// polynomial, 0x11B); the other vectorized variants use the split-nibble
/// technique (gf-complete / ISA-L): a byte product c * b factors through
/// the low and high nibbles of b,
///
///   c * b  =  c * (b & 0x0F)  ^  c * ((b >> 4) << 4)
///
/// so two 16-entry tables — lo[c][x] = c * x and hi[c][x] = c * (x << 4) —
/// turn 16/32 byte products into two byte-shuffles (PSHUFB / VPSHUFB / TBL)
/// and one XOR. The tables for all 256 coefficients total 8 KiB and are
/// built once per process from the scalar field ops.
///
/// This header is internal plumbing: library code calls gf::GFBulk (which
/// routes through gf::Dispatch); tests and benches reach individual
/// implementations through Dispatch::ByName / Dispatch::Supported.

#ifndef BDISK_GF_GF_KERNELS_H_
#define BDISK_GF_GF_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace bdisk::gf::internal {

/// One implementation of the bulk kernel. The function pointer of a
/// registered table is non-null; its semantics match
/// gf::GFBulk::MatrixMulAccumulate exactly (byte-identical outputs).
struct KernelTable {
  /// Stable lowercase identifier ("generic", "ssse3", "avx2", "gfni",
  /// "neon") — the values BDISK_GF_IMPL accepts.
  const char* name;

  /// Fused matrix-block product: for every destination block i,
  ///   dsts[i][k] ^= XOR_j coeffs[i][j] * srcs[j][k],  k in [0, block_size).
  /// Tiles the byte range so source tiles stay cache-resident across all
  /// destinations and each destination chunk is read and written once per
  /// tile instead of once per source.
  void (*matrix_mul_accumulate)(std::uint8_t* const* dsts,
                                const std::uint8_t* const* srcs,
                                const std::uint8_t* const* coeffs,
                                std::size_t n_dst, std::size_t n_src,
                                std::size_t block_size);
};

/// Split-nibble product tables shared by the vectorized implementations:
/// lo[c][x] = c * x and hi[c][x] = c * (x << 4) for x in [0, 16). 16-byte
/// aligned so the SIMD paths can use aligned register loads.
struct NibbleTables {
  alignas(16) std::uint8_t lo[256][16];
  alignas(16) std::uint8_t hi[256][16];
};

/// The process-wide nibble tables, built on first use (thread-safe).
const NibbleTables& GetNibbleTables();

/// Byte-position tile used by every matrix_mul_accumulate implementation:
/// small enough that a handful of source tiles stay L1/L2-resident while
/// all destination rows stream over them.
inline constexpr std::size_t kMatrixTileBytes = 4096;

/// Per-implementation kernel tables. A getter returns nullptr when the
/// implementation is compiled out on this architecture; whether the CPU can
/// actually execute it at runtime is checked by gf::Dispatch, not here.
const KernelTable* GenericKernels();
const KernelTable* Ssse3Kernels();
const KernelTable* Avx2Kernels();
const KernelTable* GfniKernels();
const KernelTable* NeonKernels();

}  // namespace bdisk::gf::internal

#endif  // BDISK_GF_GF_KERNELS_H_
