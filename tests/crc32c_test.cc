// CRC-32C kernels: known answers, the selected kernel against the portable
// table reference, chaining, and the CPU probe's choice.

#include "common/crc32c.h"

#include <gtest/gtest.h>

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

// Every length across the 8-byte word loop and its tail, at every start
// offset within 16 bytes (so every word-load misalignment), with the three
// kinds of incoming CRC.
TEST(Crc32cTest, SelectedKernelEqualsPortableAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 1100;
  constexpr std::size_t kOffsets = 16;
  const auto buf = RandomBytes(kMaxLen + kOffsets, 0xC3C3);
  const std::uint32_t seeded = static_cast<std::uint32_t>(Rng(0x5EED)());
  for (const std::uint32_t crc : {0u, 0xFFFFFFFFu, seeded}) {
    for (std::size_t offset = 0; offset < kOffsets; ++offset) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
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

// The stamped span of a 32 KiB block (payload plus 24 identity bytes) and a
// 64 KiB buffer.
TEST(Crc32cTest, SelectedKernelEqualsPortableOnLargeSpans) {
  const auto buf = RandomBytes(65536 + 1, 0xB10C);
  for (const std::size_t len : {std::size_t{32792}, std::size_t{65536}}) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      const std::uint8_t* p = buf.data() + offset;
      EXPECT_EQ(Crc32cExtend(0, p, len), Crc32cExtendPortable(0, p, len))
          << "len=" << len << " offset=" << offset;
    }
  }
}

TEST(Crc32cTest, ChainingAtEverySplitEqualsOneShot) {
  const auto buf = RandomBytes(1048, 0xC4A1);
  const std::uint32_t whole = Crc32c(buf.data(), buf.size());
  ASSERT_EQ(whole, Crc32cExtendPortable(0, buf.data(), buf.size()));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = Crc32cExtend(0, buf.data(), split);
    EXPECT_EQ(Crc32cExtend(head, buf.data() + split, buf.size() - split),
              whole)
        << "split=" << split;
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
