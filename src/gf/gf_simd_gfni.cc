/// \file gf_simd_gfni.cc
/// \brief AVX-512 GFNI GF(2^8) kernels — 64 byte products per VGF2P8MULB.
///
/// The field's reduction polynomial, x^8 + x^4 + x^3 + x + 1 (0x11B,
/// gf/gf256.h), is exactly the one VGF2P8MULB reduces by, so a product is
/// one instruction against a broadcast coefficient: no nibble tables, no
/// shuffles. Compiled with -mavx512f -mavx512bw -mgfni on x86 (per-file
/// flags; see CMakeLists.txt), reached only through gf::Dispatch after a
/// CPUID probe. Tails shorter than 64 bytes run as one AVX-512BW byte-masked
/// load and store instead of a scalar loop.

#include "gf/gf_kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GFNI__) && \
    defined(__AVX512BW__)

#include <immintrin.h>

#include <cstring>

namespace bdisk::gf::internal {

namespace {

inline __m512i LoadU(const std::uint8_t* p) { return _mm512_loadu_si512(p); }

inline void StoreU(std::uint8_t* p, __m512i v) { _mm512_storeu_si512(p, v); }

/// The low `n` bytes of a vector, n < 64.
inline __mmask64 TailMask(std::size_t n) {
  return (std::uint64_t{1} << n) - 1;
}

inline __m512i LoadTail(const std::uint8_t* p, __mmask64 k) {
  return _mm512_maskz_loadu_epi8(k, p);
}

inline void StoreTail(std::uint8_t* p, __mmask64 k, __m512i v) {
  _mm512_mask_storeu_epi8(p, k, v);
}

inline __m512i Mul(__m512i v, __m512i coeff) {
  return _mm512_gf2p8mul_epi8(v, coeff);
}

void GfniXorRow(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    StoreU(dst + i, _mm512_xor_si512(LoadU(dst + i), LoadU(src + i)));
  }
  if (i < n) {
    const __mmask64 k = TailMask(n - i);
    StoreTail(dst + i, k,
              _mm512_xor_si512(LoadTail(dst + i, k), LoadTail(src + i, k)));
  }
}

void GfniMulRow(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t coeff,
                std::size_t n) {
  if (coeff == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (coeff == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  const __m512i c = _mm512_set1_epi8(static_cast<char>(coeff));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) StoreU(dst + i, Mul(LoadU(src + i), c));
  if (i < n) {
    const __mmask64 k = TailMask(n - i);
    StoreTail(dst + i, k, Mul(LoadTail(src + i, k), c));
  }
}

void GfniMulRowAccumulate(std::uint8_t* dst, const std::uint8_t* src,
                          std::uint8_t coeff, std::size_t n) {
  if (coeff == 0) return;
  if (coeff == 1) {
    GfniXorRow(dst, src, n);
    return;
  }
  const __m512i c = _mm512_set1_epi8(static_cast<char>(coeff));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    StoreU(dst + i,
           _mm512_xor_si512(LoadU(dst + i), Mul(LoadU(src + i), c)));
  }
  if (i < n) {
    const __mmask64 k = TailMask(n - i);
    StoreTail(dst + i, k,
              _mm512_xor_si512(LoadTail(dst + i, k),
                               Mul(LoadTail(src + i, k), c)));
  }
}

// Terms of one destination row, split by fast path and hoisted out of the
// chunk loop, as in the AVX2 kernel: coeff==1 sources XOR straight into the
// accumulators, and general coefficients carry their broadcast vector.
struct XorTerm {
  const std::uint8_t* src;
};
struct MulTerm {
  const std::uint8_t* src;
  __m512i coeff;
};

// Sources are processed in groups so the term arrays have a fixed stack
// bound; IDA geometry never exceeds 256 sources, so one group is the norm.
constexpr std::size_t kMaxTerms = 256;

void GfniMatrixMulAccumulate(std::uint8_t* const* dsts,
                             const std::uint8_t* const* srcs,
                             const std::uint8_t* const* coeffs,
                             std::size_t n_dst, std::size_t n_src,
                             std::size_t block_size) {
  XorTerm xterms[kMaxTerms];
  MulTerm mterms[kMaxTerms];
  for (std::size_t pos = 0; pos < block_size; pos += kMatrixTileBytes) {
    const std::size_t len = block_size - pos < kMatrixTileBytes
                                ? block_size - pos
                                : kMatrixTileBytes;
    for (std::size_t i = 0; i < n_dst; ++i) {
      std::uint8_t* const dst = dsts[i] + pos;
      const std::uint8_t* const row = coeffs[i];
      for (std::size_t j0 = 0; j0 < n_src; j0 += kMaxTerms) {
        const std::size_t jn =
            n_src - j0 < kMaxTerms ? n_src - j0 : kMaxTerms;
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
                MulTerm{s, _mm512_set1_epi8(static_cast<char>(c))};
          }
        }
        if (nx == 0 && nm == 0) continue;
        std::size_t k = 0;
        // Four independent 64-byte accumulators per round, held in
        // registers across every source: each destination chunk is loaded
        // and stored once per tile.
        for (; k + 256 <= len; k += 256) {
          __m512i acc0 = LoadU(dst + k);
          __m512i acc1 = LoadU(dst + k + 64);
          __m512i acc2 = LoadU(dst + k + 128);
          __m512i acc3 = LoadU(dst + k + 192);
          for (std::size_t x = 0; x < nx; ++x) {
            const std::uint8_t* const s = xterms[x].src + k;
            acc0 = _mm512_xor_si512(acc0, LoadU(s));
            acc1 = _mm512_xor_si512(acc1, LoadU(s + 64));
            acc2 = _mm512_xor_si512(acc2, LoadU(s + 128));
            acc3 = _mm512_xor_si512(acc3, LoadU(s + 192));
          }
          for (std::size_t m = 0; m < nm; ++m) {
            const std::uint8_t* const s = mterms[m].src + k;
            const __m512i c = mterms[m].coeff;
            acc0 = _mm512_xor_si512(acc0, Mul(LoadU(s), c));
            acc1 = _mm512_xor_si512(acc1, Mul(LoadU(s + 64), c));
            acc2 = _mm512_xor_si512(acc2, Mul(LoadU(s + 128), c));
            acc3 = _mm512_xor_si512(acc3, Mul(LoadU(s + 192), c));
          }
          StoreU(dst + k, acc0);
          StoreU(dst + k + 64, acc1);
          StoreU(dst + k + 128, acc2);
          StoreU(dst + k + 192, acc3);
        }
        for (; k < len; k += 64) {
          const __mmask64 mask = len - k >= 64 ? ~__mmask64{0}
                                               : TailMask(len - k);
          __m512i acc = LoadTail(dst + k, mask);
          for (std::size_t x = 0; x < nx; ++x) {
            acc = _mm512_xor_si512(acc, LoadTail(xterms[x].src + k, mask));
          }
          for (std::size_t m = 0; m < nm; ++m) {
            acc = _mm512_xor_si512(
                acc, Mul(LoadTail(mterms[m].src + k, mask), mterms[m].coeff));
          }
          StoreTail(dst + k, mask, acc);
        }
      }
    }
  }
}

}  // namespace

const KernelTable* GfniKernels() {
  static constexpr KernelTable kTable = {
      "gfni",      GfniXorRow,
      GfniMulRow,  GfniMulRowAccumulate,
      GfniMatrixMulAccumulate,
  };
  return &kTable;
}

}  // namespace bdisk::gf::internal

#else  // !x86 or no -mgfni/-mavx512bw: register nothing.

namespace bdisk::gf::internal {
const KernelTable* GfniKernels() { return nullptr; }
}  // namespace bdisk::gf::internal

#endif
