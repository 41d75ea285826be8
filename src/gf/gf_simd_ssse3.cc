/// \file gf_simd_ssse3.cc
/// \brief SSSE3 (PSHUFB) GF(2^8) kernel — 16 bytes per shuffle pair.
///
/// Compiled with -mssse3 on x86 (CMake sets it per-file so the rest of the
/// binary stays portable); reached only through gf::Dispatch after a CPUID
/// probe. The split-nibble scheme is documented in gf_kernels.h.

#include "gf/gf_kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__SSSE3__)

#include <tmmintrin.h>

#include <algorithm>

namespace bdisk::gf::internal {

namespace {

inline __m128i LoadU(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void StoreU(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

/// coeff * v for 16 bytes: shuffle the low-nibble table by v & 0x0F, the
/// high-nibble table by v >> 4, XOR the halves.
inline __m128i MulVec(__m128i v, __m128i tlo, __m128i thi, __m128i mask) {
  const __m128i lo = _mm_and_si128(v, mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
  return _mm_xor_si128(_mm_shuffle_epi8(tlo, lo), _mm_shuffle_epi8(thi, hi));
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
  __m128i tlo;
  __m128i thi;
};

// Sources are processed in groups so the term arrays have a fixed stack
// bound; IDA geometry never exceeds 256 sources, so one group is the norm.
constexpr std::size_t kMaxTerms = 256;

void Ssse3MatrixMulAccumulate(std::uint8_t* const* dsts,
                              const std::uint8_t* const* srcs,
                              const std::uint8_t* const* coeffs,
                              std::size_t n_dst, std::size_t n_src,
                              std::size_t block_size) {
  const NibbleTables& t = GetNibbleTables();
  const __m128i mask = _mm_set1_epi8(0x0F);
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
            mterms[nm++] = MulTerm{
                s, c,
                _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c])),
                _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c]))};
          }
        }
        if (nx == 0 && nm == 0) continue;
        std::size_t k = 0;
        // Accumulators live in registers across the whole source loop: each
        // destination chunk is loaded and stored once per tile, not once
        // per source, and source tiles stay L1-resident across
        // destinations. 64 bytes per round — four independent chains.
        for (; k + 64 <= len; k += 64) {
          __m128i acc0 = LoadU(dst + k);
          __m128i acc1 = LoadU(dst + k + 16);
          __m128i acc2 = LoadU(dst + k + 32);
          __m128i acc3 = LoadU(dst + k + 48);
          for (std::size_t x = 0; x < nx; ++x) {
            const std::uint8_t* const s = xterms[x].src + k;
            acc0 = _mm_xor_si128(acc0, LoadU(s));
            acc1 = _mm_xor_si128(acc1, LoadU(s + 16));
            acc2 = _mm_xor_si128(acc2, LoadU(s + 32));
            acc3 = _mm_xor_si128(acc3, LoadU(s + 48));
          }
          for (std::size_t m = 0; m < nm; ++m) {
            const MulTerm& term = mterms[m];
            const std::uint8_t* const s = term.src + k;
            acc0 =
                _mm_xor_si128(acc0, MulVec(LoadU(s), term.tlo, term.thi, mask));
            acc1 = _mm_xor_si128(
                acc1, MulVec(LoadU(s + 16), term.tlo, term.thi, mask));
            acc2 = _mm_xor_si128(
                acc2, MulVec(LoadU(s + 32), term.tlo, term.thi, mask));
            acc3 = _mm_xor_si128(
                acc3, MulVec(LoadU(s + 48), term.tlo, term.thi, mask));
          }
          StoreU(dst + k, acc0);
          StoreU(dst + k + 16, acc1);
          StoreU(dst + k + 32, acc2);
          StoreU(dst + k + 48, acc3);
        }
        for (; k + 16 <= len; k += 16) {
          __m128i acc = LoadU(dst + k);
          for (std::size_t x = 0; x < nx; ++x) {
            acc = _mm_xor_si128(acc, LoadU(xterms[x].src + k));
          }
          for (std::size_t m = 0; m < nm; ++m) {
            const MulTerm& term = mterms[m];
            acc = _mm_xor_si128(
                acc, MulVec(LoadU(term.src + k), term.tlo, term.thi, mask));
          }
          StoreU(dst + k, acc);
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

const KernelTable* Ssse3Kernels() {
  static constexpr KernelTable kTable = {"ssse3", Ssse3MatrixMulAccumulate};
  return &kTable;
}

}  // namespace bdisk::gf::internal

#else  // !x86 or no -mssse3: register nothing.

namespace bdisk::gf::internal {
const KernelTable* Ssse3Kernels() { return nullptr; }
}  // namespace bdisk::gf::internal

#endif
