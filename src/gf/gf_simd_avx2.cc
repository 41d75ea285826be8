/// \file gf_simd_avx2.cc
/// \brief AVX2 (VPSHUFB) GF(2^8) kernel — 32 bytes per shuffle pair.
///
/// Compiled with -mavx2 on x86 (per-file flag; see CMakeLists.txt), reached
/// only through gf::Dispatch after a CPUID probe. Identical structure to the
/// SSSE3 kernel with the 16-byte nibble tables broadcast to both 128-bit
/// lanes: VPSHUFB shuffles within each lane, so a broadcast table applies
/// the same 16-entry lookup to all 32 bytes.

#include "gf/gf_kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace bdisk::gf::internal {

namespace {

inline __m256i LoadU(const std::uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void StoreU(std::uint8_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// The 16-byte nibble table for `c`, broadcast to both lanes.
inline __m256i BroadcastTable(const std::uint8_t (&table)[16]) {
  return _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(table)));
}

inline __m256i MulVec(__m256i v, __m256i tlo, __m256i thi, __m256i mask) {
  const __m256i lo = _mm256_and_si256(v, mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo),
                          _mm256_shuffle_epi8(thi, hi));
}

inline std::uint8_t MulByte(const NibbleTables& t, std::uint8_t c,
                            std::uint8_t b) {
  return static_cast<std::uint8_t>(t.lo[c][b & 0x0F] ^ t.hi[c][b >> 4]);
}

// Terms of one destination row, split by fast path and hoisted out of the
// chunk loop: coeff==1 sources XOR straight into the accumulators; general
// coefficients carry their nibble tables pre-broadcast, so the inner loop
// is branch-free with no table setup.
struct XorTerm {
  const std::uint8_t* src;
};
struct MulTerm {
  const std::uint8_t* src;
  std::uint8_t coeff;
  __m256i tlo;
  __m256i thi;
};

// Sources are processed in groups so the term arrays have a fixed stack
// bound; IDA geometry never exceeds 256 sources, so one group is the norm.
constexpr std::size_t kMaxTerms = 256;

void Avx2MatrixMulAccumulate(std::uint8_t* const* dsts,
                             const std::uint8_t* const* srcs,
                             const std::uint8_t* const* coeffs,
                             std::size_t n_dst, std::size_t n_src,
                             std::size_t block_size) {
  const NibbleTables& t = GetNibbleTables();
  const __m256i mask = _mm256_set1_epi8(0x0F);
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
            mterms[nm++] =
                MulTerm{s, c, BroadcastTable(t.lo[c]), BroadcastTable(t.hi[c])};
          }
        }
        if (nx == 0 && nm == 0) continue;
        std::size_t k = 0;
        // Accumulators live in registers across the whole source loop: each
        // destination chunk is loaded and stored once per tile, not once
        // per source, and source tiles stay L1-resident across
        // destinations. 128 bytes per round — four independent accumulator
        // chains keep the shuffle and load ports saturated.
        for (; k + 128 <= len; k += 128) {
          __m256i acc0 = LoadU(dst + k);
          __m256i acc1 = LoadU(dst + k + 32);
          __m256i acc2 = LoadU(dst + k + 64);
          __m256i acc3 = LoadU(dst + k + 96);
          for (std::size_t x = 0; x < nx; ++x) {
            const std::uint8_t* const s = xterms[x].src + k;
            acc0 = _mm256_xor_si256(acc0, LoadU(s));
            acc1 = _mm256_xor_si256(acc1, LoadU(s + 32));
            acc2 = _mm256_xor_si256(acc2, LoadU(s + 64));
            acc3 = _mm256_xor_si256(acc3, LoadU(s + 96));
          }
          for (std::size_t m = 0; m < nm; ++m) {
            const MulTerm& term = mterms[m];
            const std::uint8_t* const s = term.src + k;
            acc0 = _mm256_xor_si256(acc0,
                                    MulVec(LoadU(s), term.tlo, term.thi, mask));
            acc1 = _mm256_xor_si256(
                acc1, MulVec(LoadU(s + 32), term.tlo, term.thi, mask));
            acc2 = _mm256_xor_si256(
                acc2, MulVec(LoadU(s + 64), term.tlo, term.thi, mask));
            acc3 = _mm256_xor_si256(
                acc3, MulVec(LoadU(s + 96), term.tlo, term.thi, mask));
          }
          StoreU(dst + k, acc0);
          StoreU(dst + k + 32, acc1);
          StoreU(dst + k + 64, acc2);
          StoreU(dst + k + 96, acc3);
        }
        for (; k + 32 <= len; k += 32) {
          __m256i acc = LoadU(dst + k);
          for (std::size_t x = 0; x < nx; ++x) {
            acc = _mm256_xor_si256(acc, LoadU(xterms[x].src + k));
          }
          for (std::size_t m = 0; m < nm; ++m) {
            const MulTerm& term = mterms[m];
            acc = _mm256_xor_si256(
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

const KernelTable* Avx2Kernels() {
  static constexpr KernelTable kTable = {"avx2", Avx2MatrixMulAccumulate};
  return &kTable;
}

}  // namespace bdisk::gf::internal

#else  // !x86 or no -mavx2: register nothing.

namespace bdisk::gf::internal {
const KernelTable* Avx2Kernels() { return nullptr; }
}  // namespace bdisk::gf::internal

#endif
