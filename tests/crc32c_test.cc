// CRC-32C kernels: known answers, the selected kernel against the portable
// table reference, chaining, and the CPU probe's choice.

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

TEST(Crc32cTest, KnownAnswersOnBothKernels) {
  for (const KnownAnswer& ka : KnownAnswers()) {
    EXPECT_EQ(Crc32c(ka.data.data(), ka.data.size()), ka.crc) << ka.name;
    EXPECT_EQ(Crc32cExtendPortable(0, ka.data.data(), ka.data.size()), ka.crc)
        << ka.name;
  }
}

TEST(Crc32cTest, EmptyInputLeavesTheCrcUnchanged) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32cExtend(0x12345678u, nullptr, 0), 0x12345678u);
  EXPECT_EQ(Crc32cExtendPortable(0x12345678u, nullptr, 0), 0x12345678u);
}

// Checks the selected kernel against the portable one at every length in
// `lengths`, at every start offset within 16 bytes (so every word-load
// misalignment), with the three kinds of incoming CRC. Stops at the first
// mismatch.
void ExpectSelectedEqualsPortable(const std::vector<std::size_t>& lengths) {
  constexpr std::size_t kOffsets = 16;
  const auto buf = RandomBytes(std::ranges::max(lengths) + kOffsets, 0xC3C3);
  const std::uint32_t seeded = static_cast<std::uint32_t>(Rng(0x5EED)());
  for (const std::uint32_t crc : {0u, 0xFFFFFFFFu, seeded}) {
    for (std::size_t offset = 0; offset < kOffsets; ++offset) {
      for (const std::size_t len : lengths) {
        const std::uint8_t* p = buf.data() + offset;
        const std::uint32_t want = Crc32cExtendPortable(crc, p, len);
        const std::uint32_t got = Crc32cExtend(crc, p, len);
        if (got != want) {
          FAIL() << "crc=" << crc << " offset=" << offset << " len=" << len
                 << ": got " << got << ", portable " << want;
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

// Every length across the 8-byte word loop and its tail.
TEST(Crc32cTest, SelectedKernelEqualsPortableAtEveryLengthAndOffset) {
  ExpectSelectedEqualsPortable(Lengths(0, 1100));
}

// Both sides of three and six lanes, where the kernel starts its first and
// second three-lane run: below, one chain (after one run, below six); at
// and above, the runs and then a one-chain tail.
TEST(Crc32cTest, SelectedKernelEqualsPortableAroundTheLaneRuns) {
  ExpectSelectedEqualsPortable(Lengths(3 * kLane - 64, 3 * kLane + 64));
  ExpectSelectedEqualsPortable(Lengths(6 * kLane - 16, 6 * kLane + 16));
}

// A 32 KiB payload, its stamped span (payload plus 24 identity bytes), a
// 64 KiB buffer and an odd length past them.
TEST(Crc32cTest, SelectedKernelEqualsPortableOnLargeSpans) {
  ExpectSelectedEqualsPortable({32768, 32792, 65536, 100003});
}

TEST(Crc32cTest, ChainingAtEverySplitEqualsOneShot) {
  for (const std::size_t size : {std::size_t{1048}, 3 * kLane + 100}) {
    const auto buf = RandomBytes(size, 0xC4A1);
    const std::uint32_t whole = Crc32c(buf.data(), buf.size());
    ASSERT_EQ(whole, Crc32cExtendPortable(0, buf.data(), buf.size()));
    for (std::size_t split = 0; split <= buf.size(); ++split) {
      const std::uint32_t head = Crc32cExtend(0, buf.data(), split);
      const std::uint32_t got =
          Crc32cExtend(head, buf.data() + split, buf.size() - split);
      if (got != whole) {
        FAIL() << "size=" << size << " split=" << split << ": got " << got
               << ", one-shot " << whole;
      }
    }
  }
}

// The probe must pick the hardware kernel whenever the CPU has it: a broken
// preprocessor guard would otherwise fall back to the table with every
// other test still green.
TEST(Crc32cTest, ProbeSelectsTheHardwareKernelExactlyWhenTheCpuHasIt) {
#if defined(__x86_64__) && defined(__GNUC__)
  const bool has_sse42 = __builtin_cpu_supports("sse4.2") != 0;
#else
  const bool has_sse42 = false;
#endif
  EXPECT_STREQ(internal::Crc32cKernelName(), has_sse42 ? "sse4.2" : "portable");
}

}  // namespace
}  // namespace bdisk
