/// \file gf_simd_neon.cc
/// \brief AArch64 NEON (TBL) GF(2^8) kernel — 16 bytes per table pair.
///
/// NEON is architecturally mandatory on AArch64, so no per-file compile
/// flag or runtime probe is needed; gf::Dispatch registers this table
/// whenever the binary targets AArch64. vqtbl1q_u8 is the 16-entry byte
/// table lookup that mirrors PSHUFB (out-of-range indices return 0, which
/// the nibble masks never produce).

#include "gf/gf_kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>

namespace bdisk::gf::internal {

namespace {

/// coeff * v for 16 bytes. vshrq_n_u8 is a per-byte shift, so no mask is
/// needed on the high nibble.
inline uint8x16_t MulVec(uint8x16_t v, uint8x16_t tlo, uint8x16_t thi) {
  const uint8x16_t lo = vandq_u8(v, vdupq_n_u8(0x0F));
  const uint8x16_t hi = vshrq_n_u8(v, 4);
  return veorq_u8(vqtbl1q_u8(tlo, lo), vqtbl1q_u8(thi, hi));
}

inline std::uint8_t MulByte(const NibbleTables& t, std::uint8_t c,
                            std::uint8_t b) {
  return static_cast<std::uint8_t>(t.lo[c][b & 0x0F] ^ t.hi[c][b >> 4]);
}

// Terms of one destination row, split by fast path and hoisted out of the
// chunk loop: coeff==1 sources XOR straight into the accumulators; general
// coefficients carry their nibble tables preloaded, so the inner loop is
// branch-free with no table setup.
struct XorTerm {
  const std::uint8_t* src;
};
struct MulTerm {
  const std::uint8_t* src;
  std::uint8_t coeff;
  uint8x16_t tlo;
  uint8x16_t thi;
};

// Sources are processed in groups so the term arrays have a fixed stack
// bound; IDA geometry never exceeds 256 sources, so one group is the norm.
constexpr std::size_t kMaxTerms = 256;

void NeonMatrixMulAccumulate(std::uint8_t* const* dsts,
                             const std::uint8_t* const* srcs,
                             const std::uint8_t* const* coeffs,
                             std::size_t n_dst, std::size_t n_src,
                             std::size_t block_size) {
  const NibbleTables& t = GetNibbleTables();
  XorTerm xterms[kMaxTerms];
  MulTerm mterms[kMaxTerms];
  for (std::size_t pos = 0; pos < block_size; pos += kMatrixTileBytes) {
    const std::size_t len = std::min(kMatrixTileBytes, block_size - pos);
    for (std::size_t i = 0; i < n_dst; ++i) {
      std::uint8_t* const dst = dsts[i] + pos;
      const std::uint8_t* const row = coeffs[i];
      for (std::size_t j0 = 0; j0 < n_src; j0 += kMaxTerms) {
        const std::size_t jn = std::min(n_src - j0, kMaxTerms);
        std::size_t nx = 0;
        std::size_t nm = 0;
        for (std::size_t j = 0; j < jn; ++j) {
          const std::uint8_t c = row[j0 + j];
          if (c == 0) continue;
          const std::uint8_t* const s = srcs[j0 + j] + pos;
          if (c == 1) {
            xterms[nx++] = XorTerm{s};
          } else {
            mterms[nm++] = MulTerm{s, c, vld1q_u8(t.lo[c]), vld1q_u8(t.hi[c])};
          }
        }
        if (nx == 0 && nm == 0) continue;
        std::size_t k = 0;
        // Accumulators live in registers across the whole source loop: each
        // destination chunk is loaded and stored once per tile, not once
        // per source, and source tiles stay L1-resident across
        // destinations. 64 bytes per round — four independent chains.
        for (; k + 64 <= len; k += 64) {
          uint8x16_t acc0 = vld1q_u8(dst + k);
          uint8x16_t acc1 = vld1q_u8(dst + k + 16);
          uint8x16_t acc2 = vld1q_u8(dst + k + 32);
          uint8x16_t acc3 = vld1q_u8(dst + k + 48);
          for (std::size_t x = 0; x < nx; ++x) {
            const std::uint8_t* const s = xterms[x].src + k;
            acc0 = veorq_u8(acc0, vld1q_u8(s));
            acc1 = veorq_u8(acc1, vld1q_u8(s + 16));
            acc2 = veorq_u8(acc2, vld1q_u8(s + 32));
            acc3 = veorq_u8(acc3, vld1q_u8(s + 48));
          }
          for (std::size_t m = 0; m < nm; ++m) {
            const MulTerm& term = mterms[m];
            const std::uint8_t* const s = term.src + k;
            acc0 = veorq_u8(acc0, MulVec(vld1q_u8(s), term.tlo, term.thi));
            acc1 = veorq_u8(acc1, MulVec(vld1q_u8(s + 16), term.tlo, term.thi));
            acc2 = veorq_u8(acc2, MulVec(vld1q_u8(s + 32), term.tlo, term.thi));
            acc3 = veorq_u8(acc3, MulVec(vld1q_u8(s + 48), term.tlo, term.thi));
          }
          vst1q_u8(dst + k, acc0);
          vst1q_u8(dst + k + 16, acc1);
          vst1q_u8(dst + k + 32, acc2);
          vst1q_u8(dst + k + 48, acc3);
        }
        for (; k + 16 <= len; k += 16) {
          uint8x16_t acc = vld1q_u8(dst + k);
          for (std::size_t x = 0; x < nx; ++x) {
            acc = veorq_u8(acc, vld1q_u8(xterms[x].src + k));
          }
          for (std::size_t m = 0; m < nm; ++m) {
            const MulTerm& term = mterms[m];
            acc = veorq_u8(acc, MulVec(vld1q_u8(term.src + k), term.tlo,
                                       term.thi));
          }
          vst1q_u8(dst + k, acc);
        }
        for (; k < len; ++k) {
          std::uint8_t b = dst[k];
          for (std::size_t x = 0; x < nx; ++x) b ^= xterms[x].src[k];
          for (std::size_t m = 0; m < nm; ++m) {
            b ^= MulByte(t, mterms[m].coeff, mterms[m].src[k]);
          }
          dst[k] = b;
        }
      }
    }
  }
}

}  // namespace

const KernelTable* NeonKernels() {
  static constexpr KernelTable kTable = {"neon", NeonMatrixMulAccumulate};
  return &kTable;
}

}  // namespace bdisk::gf::internal

#else  // Not AArch64: register nothing.

namespace bdisk::gf::internal {
const KernelTable* NeonKernels() { return nullptr; }
}  // namespace bdisk::gf::internal

#endif
