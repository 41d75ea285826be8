#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
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

using Kernel = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

struct SelectedKernel {
  Kernel extend;
  const char* name;
};

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
#endif

SelectedKernel Select() {
#if BDISK_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) return {Crc32cExtendSse42, "sse4.2"};
#endif
  return {internal::Crc32cExtendPortable, "portable"};
}

const SelectedKernel& Selected() {
  static const SelectedKernel kSelected = Select();
  return kSelected;
}

}  // namespace

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t len) {
  return Selected().extend(crc, data, len);
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

const char* Crc32cKernelName() { return Selected().name; }

}  // namespace internal
}  // namespace bdisk
