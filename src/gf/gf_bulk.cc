/// \file gf_bulk.cc
/// \brief Shared kernel tables, the portable "generic" implementation, and
/// the dispatched GFBulk entry point.

#include "gf/gf_bulk.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "gf/gf256.h"
#include "gf/gf_dispatch.h"
#include "gf/gf_kernels.h"

namespace bdisk::gf {

namespace {

// The full product table: kProducts[c][x] == c * x in GF(2^8). 64 KiB total;
// any one row (256 B, four cache lines) stays L1-resident across a block.
struct ProductTable {
  std::array<std::array<std::uint8_t, 256>, 256> rows;
};

const ProductTable& Products() {
  static const ProductTable kProducts = [] {
    ProductTable t{};
    for (unsigned c = 0; c < 256; ++c) {
      for (unsigned x = 0; x < 256; ++x) {
        t.rows[c][x] = GF256::Mul(static_cast<std::uint8_t>(c),
                                  static_cast<std::uint8_t>(x));
      }
    }
    return t;
  }();
  return kProducts;
}

// ---------------------------------------------------------------------------
// Generic (portable scalar) kernel — every other implementation must match
// it byte-for-byte.
// ---------------------------------------------------------------------------

// dst[i] ^= coeff * src[i] for i in [0, n): nothing for coeff 0, a
// word-wide XOR for coeff 1, one product-table lookup per byte otherwise.
void MulAccumulate(std::uint8_t* dst, const std::uint8_t* src,
                   std::uint8_t coeff, std::size_t n) {
  if (coeff == 0) return;
  std::size_t i = 0;
  if (coeff == 1) {
    // memcpy keeps the word loop alias- and alignment-safe and compiles to
    // plain 64-bit loads/stores.
    for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
      std::uint64_t a;
      std::uint64_t b;
      std::memcpy(&a, dst + i, sizeof(a));
      std::memcpy(&b, src + i, sizeof(b));
      a ^= b;
      std::memcpy(dst + i, &a, sizeof(a));
    }
    for (; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const std::uint8_t* const table = Products().rows[coeff].data();
  // Unrolled by 4: the four independent lookup/XOR chains pipeline well and
  // give the compiler room to keep table loads in flight.
  for (; i + 4 <= n; i += 4) {
    dst[i] ^= table[src[i]];
    dst[i + 1] ^= table[src[i + 1]];
    dst[i + 2] ^= table[src[i + 2]];
    dst[i + 3] ^= table[src[i + 3]];
  }
  for (; i < n; ++i) dst[i] ^= table[src[i]];
}

void GenericMatrixMulAccumulate(std::uint8_t* const* dsts,
                                const std::uint8_t* const* srcs,
                                const std::uint8_t* const* coeffs,
                                std::size_t n_dst, std::size_t n_src,
                                std::size_t block_size) {
  // Position tiling only: within a tile every source slice is touched once
  // per destination, but the tile working set (n_src + 1 slices of at most
  // kMatrixTileBytes) stays cache-resident, so only the first round streams
  // from memory.
  for (std::size_t pos = 0; pos < block_size;
       pos += internal::kMatrixTileBytes) {
    const std::size_t len =
        std::min(internal::kMatrixTileBytes, block_size - pos);
    for (std::size_t i = 0; i < n_dst; ++i) {
      std::uint8_t* const dst = dsts[i] + pos;
      const std::uint8_t* const row = coeffs[i];
      for (std::size_t j = 0; j < n_src; ++j) {
        MulAccumulate(dst, srcs[j] + pos, row[j], len);
      }
    }
  }
}

}  // namespace

namespace internal {

const NibbleTables& GetNibbleTables() {
  static const NibbleTables kTables = [] {
    NibbleTables t{};
    for (unsigned c = 0; c < 256; ++c) {
      for (unsigned x = 0; x < 16; ++x) {
        t.lo[c][x] = GF256::Mul(static_cast<std::uint8_t>(c),
                                static_cast<std::uint8_t>(x));
        t.hi[c][x] = GF256::Mul(static_cast<std::uint8_t>(c),
                                static_cast<std::uint8_t>(x << 4));
      }
    }
    return t;
  }();
  return kTables;
}

const KernelTable* GenericKernels() {
  static constexpr KernelTable kTable = {"generic",
                                         GenericMatrixMulAccumulate};
  return &kTable;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

const std::uint8_t* GFBulk::MulTable(std::uint8_t coeff) {
  return Products().rows[coeff].data();
}

void GFBulk::MatrixMulAccumulate(std::uint8_t* const* dsts,
                                 const std::uint8_t* const* srcs,
                                 const std::uint8_t* const* coeffs,
                                 std::size_t n_dst, std::size_t n_src,
                                 std::size_t block_size) {
  Dispatch::Active().matrix_mul_accumulate(dsts, srcs, coeffs, n_dst, n_src,
                                           block_size);
}

}  // namespace bdisk::gf
