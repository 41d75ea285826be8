#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define BDISK_CRC32C_SSE42 1
#endif

namespace bdisk {
namespace {

// Reflected CRC-32C table, generated at compile time from the Castagnoli
// polynomial (reflected form 0x82F63B78).
constexpr std::array<std::uint32_t, 256> MakeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = MakeTable();

#if BDISK_CRC32C_SSE42
constexpr std::size_t kLane = internal::kCrc32cLaneBytes;

// Adler's zeros-operator: advances a raw CRC register (no inversions) over
// one lane of zero bytes, one 256-entry table per register byte. The
// operator is linear over GF(2), so each entry is the XOR of the images of
// its set bits, and each bit's image is that bit run through kTable.
constexpr std::array<std::array<std::uint32_t, 256>, 4> MakeShiftTable() {
  std::array<std::uint32_t, 32> bit_image{};
  for (int bit = 0; bit < 32; ++bit) {
    std::uint32_t crc = 1u << bit;
    for (std::size_t i = 0; i < kLane; ++i) {
      crc = (crc >> 8) ^ kTable[crc & 0xFFu];
    }
    bit_image[bit] = crc;
  }
  std::array<std::array<std::uint32_t, 256>, 4> table{};
  for (int byte = 0; byte < 4; ++byte) {
    for (std::uint32_t value = 0; value < 256; ++value) {
      for (int bit = 0; bit < 8; ++bit) {
        if ((value >> bit) & 1u) {
          table[byte][value] ^= bit_image[8 * byte + bit];
        }
      }
    }
  }
  return table;
}

constexpr std::array<std::array<std::uint32_t, 256>, 4> kShift =
    MakeShiftTable();

std::uint32_t ShiftLane(std::uint64_t crc) {
  return kShift[0][crc & 0xFFu] ^ kShift[1][(crc >> 8) & 0xFFu] ^
         kShift[2][(crc >> 16) & 0xFFu] ^ kShift[3][(crc >> 24) & 0xFFu];
}

std::uint64_t LoadWord(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// The SSE4.2 crc32 instruction computes exactly this polynomial, reflected,
// so it is a drop-in for the table: one 8-byte word per instruction (the
// little-endian load feeds the bytes in memory order), then a bytewise tail.
// It has a three-cycle latency but a throughput of one per cycle, so each
// run of three lanes feeds three independent chains, c1 and c2 from a zero
// register, and folds them as shift(shift(c) ^ c1) ^ c2. What is left after
// the lanes, and all of a shorter buffer, is one chain.
// The target attribute compiles this one function for SSE4.2; it is only
// ever called after the CPU probe below has seen the feature.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cExtendSse42(
    std::uint32_t crc, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = ~crc;
  for (; len >= 3 * kLane; p += 3 * kLane, len -= 3 * kLane) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kLane; i += 8) {
      c = _mm_crc32_u64(c, LoadWord(p + i));
      c1 = _mm_crc32_u64(c1, LoadWord(p + kLane + i));
      c2 = _mm_crc32_u64(c2, LoadWord(p + 2 * kLane + i));
    }
    c = ShiftLane(ShiftLane(c) ^ c1) ^ c2;
  }
  for (; len >= 8; p += 8, len -= 8) c = _mm_crc32_u64(c, LoadWord(p));
  auto c32 = static_cast<std::uint32_t>(c);
  for (; len > 0; ++p, --len) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

// x^d mod P in the reflected domain, where bit 31 is x^0: each step
// multiplies by x, reducing x^32 to the reflected polynomial.
constexpr std::uint32_t XPowMod(int d) {
  std::uint32_t r = 0x80000000u;
  for (int i = 0; i < d; ++i) r = (r >> 1) ^ ((r & 1) ? 0x82F63B78u : 0u);
  return r;
}

// The two carry-less multipliers that fold a 128-bit lane over `bits` more
// message bits. A reflected lane is H·x^64 + L with the high-degree half H
// in its low quadword, so the lane times x^bits is H·x^(bits+64) +
// L·x^bits. A reflected 64×32-bit carry-less product comes out as the
// product times x^-1 in the 128-bit result, and the constants are shifted
// left one bit to undo that; then H·K·x^32 ≡ H·x^(bits+64) needs K =
// x^(bits+32), and L needs x^(bits-32). Low quadword first.
struct FoldConstants {
  long long lo;
  long long hi;
};

constexpr FoldConstants Fold(int bits) {
  return {static_cast<long long>(std::uint64_t{XPowMod(bits + 32)} << 1),
          static_cast<long long>(std::uint64_t{XPowMod(bits - 32)} << 1)};
}

constexpr FoldConstants kFold2048 = Fold(2048);  // 256-byte main loop
constexpr FoldConstants kFold512 = Fold(512);    // merges, 64-byte tail
constexpr FoldConstants kFold384 = Fold(384);
constexpr FoldConstants kFold256 = Fold(256);
constexpr FoldConstants kFold128 = Fold(128);    // lane merge, 16-byte tail

constexpr std::size_t kFold = internal::kCrc32cFoldBytes;

__attribute__((target("avx512f,vpclmulqdq"))) __m512i Broadcast(
    FoldConstants k) {
  return _mm512_set_epi64(k.hi, k.lo, k.hi, k.lo, k.hi, k.lo, k.hi, k.lo);
}

// Folds each 128-bit lane of x by the lane's constants and XORs in y.
__attribute__((target("avx512f,vpclmulqdq"))) __m512i Fold512(__m512i x,
                                                             __m512i k,
                                                             __m512i y) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), y,
                                   0x96);
}

__attribute__((target("pclmul,sse4.2"))) __m128i Fold128(__m128i x, __m128i k,
                                                        __m128i y) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       y);
}

// Carry-less multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009) on 512-bit
// registers. Four accumulators take 256 bytes per iteration, the incoming
// register XORed into the first 4 bytes; they then fold into one, which
// takes the remaining 64-byte blocks, and its four 128-bit lanes fold into
// one, which takes the remaining 16-byte blocks. That last lane is the
// message's high-order 128 bits with the rest already reduced into it, so
// two crc32 instructions over its quadwords, from a zero register, reduce it
// to the CRC register; fewer than 16 bytes are left, four crc32 at most.
// A buffer shorter than one 256-byte step runs the SSE4.2 kernel's one
// chain. GCC 12 warns inside its own headers on the 512-to-128-bit
// extracts, so the lanes go out through an aligned buffer instead.
__attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.2"))) std::uint32_t
Crc32cExtendVpclmulqdq(std::uint32_t crc, const void* data, std::size_t len) {
  if (len < kFold) return Crc32cExtendSse42(crc, data, len);
  const auto* p = static_cast<const std::uint8_t*>(data);
  __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(p),
                                _mm512_maskz_set1_epi32(1, ~crc));
  __m512i x1 = _mm512_loadu_si512(p + 64);
  __m512i x2 = _mm512_loadu_si512(p + 128);
  __m512i x3 = _mm512_loadu_si512(p + 192);
  p += kFold;
  len -= kFold;
  const __m512i k2048 = Broadcast(kFold2048);
  for (; len >= kFold; p += kFold, len -= kFold) {
    x0 = Fold512(x0, k2048, _mm512_loadu_si512(p));
    x1 = Fold512(x1, k2048, _mm512_loadu_si512(p + 64));
    x2 = Fold512(x2, k2048, _mm512_loadu_si512(p + 128));
    x3 = Fold512(x3, k2048, _mm512_loadu_si512(p + 192));
  }
  const __m512i k512 = Broadcast(kFold512);
  __m512i x = Fold512(Fold512(Fold512(x0, k512, x1), k512, x2), k512, x3);
  for (; len >= 64; p += 64, len -= 64) {
    x = Fold512(x, k512, _mm512_loadu_si512(p));
  }
  // Lane i of x sits 3 - i lanes before the end; lane 3 is not moved.
  const __m512i merge = _mm512_set_epi64(0, 0, kFold128.hi, kFold128.lo,
                                         kFold256.hi, kFold256.lo,
                                         kFold384.hi, kFold384.lo);
  alignas(64) std::uint8_t lanes[2][64];
  _mm512_store_si512(lanes[0], Fold512(x, merge, _mm512_setzero_si512()));
  _mm512_store_si512(lanes[1], x);
  const auto lane = [&lanes](int row, int i) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(lanes[row] + 16 * i));
  };
  __m128i r = _mm_xor_si128(_mm_xor_si128(lane(0, 0), lane(0, 1)),
                            _mm_xor_si128(lane(0, 2), lane(1, 3)));
  const __m128i k128 = _mm_set_epi64x(kFold128.hi, kFold128.lo);
  for (; len >= 16; p += 16, len -= 16) {
    r = Fold128(r, k128, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  std::uint64_t c = _mm_crc32_u64(0, static_cast<std::uint64_t>(
                                         _mm_cvtsi128_si64(r)));
  c = _mm_crc32_u64(c, static_cast<std::uint64_t>(_mm_extract_epi64(r, 1)));
  auto c32 = static_cast<std::uint32_t>(c);
  if (len & 8) {
    c32 = static_cast<std::uint32_t>(_mm_crc32_u64(c32, LoadWord(p)));
    p += 8;
  }
  if (len & 4) {
    std::uint32_t word;
    std::memcpy(&word, p, sizeof(word));
    c32 = _mm_crc32_u32(c32, word);
    p += 4;
  }
  if (len & 2) {
    std::uint16_t half;
    std::memcpy(&half, p, sizeof(half));
    c32 = _mm_crc32_u16(c32, half);
    p += 2;
  }
  if (len & 1) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

std::vector<internal::Crc32cKernel> BuildKernels() {
  std::vector<internal::Crc32cKernel> out = {
      {"portable", internal::Crc32cExtendPortable}};
#if BDISK_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) {
    out.push_back({"sse4.2", Crc32cExtendSse42});
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("vpclmulqdq") &&
        __builtin_cpu_supports("pclmul")) {
      out.push_back({"vpclmulqdq", Crc32cExtendVpclmulqdq});
    }
  }
#endif
  return out;
}

}  // namespace

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t len) {
  static const auto kExtend = internal::Crc32cKernels().back().extend;
  return kExtend(crc, data, len);
}

namespace internal {

std::uint32_t Crc32cExtendPortable(std::uint32_t crc, const void* data,
                                   std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

const std::vector<Crc32cKernel>& Crc32cKernels() {
  static const std::vector<Crc32cKernel> kKernels = BuildKernels();
  return kKernels;
}

}  // namespace internal
}  // namespace bdisk
