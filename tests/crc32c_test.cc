// CRC-32C kernels: known answers, every kernel the host can run against
// the portable table reference, chaining, and the CPU probe's choice.

#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"

namespace bdisk {
namespace {

using internal::Crc32cExtendPortable;

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Uniform(256));
  return out;
}

struct KnownAnswer {
  const char* name;
  std::vector<std::uint8_t> data;
  std::uint32_t crc;
};

// RFC 3720 (iSCSI) section B.4 test vectors, plus the customary check value
// of "123456789".
std::vector<KnownAnswer> KnownAnswers() {
  std::vector<std::uint8_t> up(32);
  std::vector<std::uint8_t> down(32);
  for (std::uint8_t i = 0; i < 32; ++i) {
    up[i] = i;
    down[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::string_view check = "123456789";
  return {
      {"32 x 0x00", std::vector<std::uint8_t>(32, 0x00), 0x8A9136AAu},
      {"32 x 0xFF", std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43u},
      {"0x00..0x1F", up, 0x46DD794Eu},
      {"0x1F..0x00", down, 0x113FDB5Cu},
      {"\"123456789\"", {check.begin(), check.end()}, 0xE3069283u},
  };
}

using internal::Crc32cKernel;
using internal::Crc32cKernels;

TEST(Crc32cTest, KnownAnswersOnEveryKernel) {
  for (const KnownAnswer& ka : KnownAnswers()) {
    EXPECT_EQ(Crc32c(ka.data.data(), ka.data.size()), ka.crc) << ka.name;
    for (const Crc32cKernel& k : Crc32cKernels()) {
      EXPECT_EQ(k.extend(0, ka.data.data(), ka.data.size()), ka.crc)
          << ka.name << " on " << k.name;
    }
  }
}

TEST(Crc32cTest, EmptyInputLeavesTheCrcUnchanged) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32cExtend(0x12345678u, nullptr, 0), 0x12345678u);
  for (const Crc32cKernel& k : Crc32cKernels()) {
    EXPECT_EQ(k.extend(0x12345678u, nullptr, 0), 0x12345678u) << k.name;
  }
}

// The incoming CRCs every comparison runs with: zero, all ones and a
// seeded value.
std::vector<std::uint32_t> IncomingCrcs() {
  return {0u, 0xFFFFFFFFu, static_cast<std::uint32_t>(Rng(0x5EED)())};
}

// Checks every kernel against the portable one at every length in
// `lengths`, at every start offset within 16 bytes (so every load
// misalignment), with each incoming CRC. Stops at the first mismatch.
void ExpectEveryKernelEqualsPortable(const std::vector<std::size_t>& lengths) {
  constexpr std::size_t kOffsets = 16;
  const auto buf = RandomBytes(std::ranges::max(lengths) + kOffsets, 0xC3C3);
  for (const Crc32cKernel& k : Crc32cKernels()) {
    for (const std::uint32_t crc : IncomingCrcs()) {
      for (std::size_t offset = 0; offset < kOffsets; ++offset) {
        for (const std::size_t len : lengths) {
          const std::uint8_t* p = buf.data() + offset;
          const std::uint32_t want = Crc32cExtendPortable(crc, p, len);
          const std::uint32_t got = k.extend(crc, p, len);
          if (got != want) {
            FAIL() << k.name << ": crc=" << crc << " offset=" << offset
                   << " len=" << len << ": got " << got << ", portable "
                   << want;
          }
        }
      }
    }
  }
}

// Every length in [first, last].
std::vector<std::size_t> Lengths(std::size_t first, std::size_t last) {
  std::vector<std::size_t> out;
  for (std::size_t len = first; len <= last; ++len) out.push_back(len);
  return out;
}

constexpr std::size_t kLane = internal::kCrc32cLaneBytes;
constexpr std::size_t kFold = internal::kCrc32cFoldBytes;

// Every length across the 8-byte word loop and its tail.
TEST(Crc32cTest, EveryKernelEqualsPortableAtEveryLengthAndOffset) {
  ExpectEveryKernelEqualsPortable(Lengths(0, 1100));
}

// Both sides of three and six lanes, where the SSE4.2 kernel starts its
// first and second three-lane run: below, one chain (after one run, below
// six); at and above, the runs and then a one-chain tail.
TEST(Crc32cTest, EveryKernelEqualsPortableAroundTheLaneRuns) {
  ExpectEveryKernelEqualsPortable(Lengths(3 * kLane - 64, 3 * kLane + 64));
  ExpectEveryKernelEqualsPortable(Lengths(6 * kLane - 16, 6 * kLane + 16));
}

// The VPCLMULQDQ kernel's steps: below one 256-byte step it runs one
// chain; above, every mix of 256-byte steps, 64-byte and 16-byte tail
// blocks and a 0-15 byte remainder up to 600 bytes, then both sides of
// four and eight steps.
TEST(Crc32cTest, EveryKernelEqualsPortableAroundTheFoldSteps) {
  ExpectEveryKernelEqualsPortable(Lengths(kFold - 16, 600));
  ExpectEveryKernelEqualsPortable(Lengths(4 * kFold - 1, 4 * kFold + 1));
  ExpectEveryKernelEqualsPortable(Lengths(8 * kFold - 1, 8 * kFold + 1));
}

// A 32 KiB payload, its stamped span (payload plus 24 identity bytes), a
// 64 KiB buffer and an odd length past them.
TEST(Crc32cTest, EveryKernelEqualsPortableOnLargeSpans) {
  ExpectEveryKernelEqualsPortable({32768, 32792, 65536, 100003});
}

// Each buffer is a fresh allocation of exactly `len` bytes, so a kernel
// that loads past its end leaves the allocation, which AddressSanitizer
// reports; the sweeps above slice one larger buffer and cannot show it.
TEST(Crc32cTest, EveryKernelStaysInsideAnExactSizeBuffer) {
  std::vector<std::size_t> lengths = Lengths(0, 1100);
  for (const std::size_t len : Lengths(3 * kLane - 64, 3 * kLane + 64)) {
    lengths.push_back(len);
  }
  lengths.push_back(32792);
  const auto source = RandomBytes(std::ranges::max(lengths), 0xE8AC);
  for (const std::size_t len : lengths) {
    const std::vector<std::uint8_t> buf(source.begin(), source.begin() + len);
    for (const std::uint32_t crc : IncomingCrcs()) {
      const std::uint32_t want = Crc32cExtendPortable(crc, buf.data(), len);
      for (const Crc32cKernel& k : Crc32cKernels()) {
        const std::uint32_t got = k.extend(crc, buf.data(), len);
        if (got != want) {
          FAIL() << k.name << ": crc=" << crc << " len=" << len << ": got "
                 << got << ", portable " << want;
        }
      }
    }
  }
}

TEST(Crc32cTest, ChainingAtEverySplitEqualsOneShotOnEveryKernel) {
  for (const std::size_t size : {std::size_t{1048}, 3 * kLane + 100}) {
    const auto buf = RandomBytes(size, 0xC4A1);
    const std::uint32_t whole = Crc32cExtendPortable(0, buf.data(), size);
    ASSERT_EQ(Crc32c(buf.data(), size), whole);
    for (const Crc32cKernel& k : Crc32cKernels()) {
      for (std::size_t split = 0; split <= size; ++split) {
        const std::uint32_t head = k.extend(0, buf.data(), split);
        const std::uint32_t got =
            k.extend(head, buf.data() + split, size - split);
        if (got != whole) {
          FAIL() << k.name << ": size=" << size << " split=" << split
                 << ": got " << got << ", one-shot " << whole;
        }
      }
    }
  }
}

// The probe must pick the best kernel the CPU can run, and list exactly
// the ones it can: a broken preprocessor guard or feature test would
// otherwise fall back to a slower kernel with every other test still
// green.
TEST(Crc32cTest, ProbeSelectsTheHardwareKernelExactlyWhenTheCpuHasIt) {
#if defined(__x86_64__) && defined(__GNUC__)
  const bool has_sse42 = __builtin_cpu_supports("sse4.2") != 0;
  const bool has_fold = has_sse42 && __builtin_cpu_supports("avx512f") &&
                        __builtin_cpu_supports("vpclmulqdq") &&
                        __builtin_cpu_supports("pclmul");
#else
  const bool has_sse42 = false;
  const bool has_fold = false;
#endif
  std::vector<std::string_view> want = {"portable"};
  if (has_sse42) want.push_back("sse4.2");
  if (has_fold) want.push_back("vpclmulqdq");
  std::vector<std::string_view> got;
  for (const Crc32cKernel& k : Crc32cKernels()) got.push_back(k.name);
  EXPECT_EQ(got, want);
  EXPECT_STREQ(Crc32cKernels().back().name, has_fold    ? "vpclmulqdq"
                                            : has_sse42 ? "sse4.2"
                                                        : "portable");
}

}  // namespace
}  // namespace bdisk
