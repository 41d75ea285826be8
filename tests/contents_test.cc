// Snapshot synthesis (sim/contents.h): every kernel the host runs, and
// VersionedBroadcastServer::ContentsOf on top of them, must write the
// bytes of the serial loop ContentsOf has always run, whatever the row
// count, the block size or the seed.

#include "sim/contents.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bdisk/flat_builder.h"
#include "common/random.h"
#include "sim/versioned.h"

namespace bdisk::sim {
namespace {

using internal::ContentsKernels;

// m runs over 1..kMaxM, one file each; kSeeds versions give each file as
// many generator seeds.
constexpr std::uint32_t kMaxM = 17;
constexpr std::uint64_t kSeeds = 50;
constexpr std::size_t kBlockSizes[] = {8, 13, 1024, 4104, 32768};

// The serial loop ContentsOf ran before the lanes, kept here as the
// reference: eight bytes per draw, each stored little-endian, and a short
// tail taking the low bytes of one more draw.
std::vector<std::uint8_t> SerialStream(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(size);
  std::size_t i = 0;
  for (; data.size() - i >= 8; i += 8) {
    std::uint64_t word = rng();
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(data.data() + i, &word, 8);
  }
  if (i < data.size()) {
    std::uint64_t word = rng();
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(data.data() + i, &word, data.size() - i);
  }
  return data;
}

// `count` rows filled by `fill`, each in its own exact-size buffer so the
// ASan leg sees a write past a row, compared with `expected`.
void ExpectRowsMatch(void (*fill)(std::uint64_t, std::uint8_t* const*,
                                  std::size_t, std::size_t),
                     std::uint64_t seed, std::size_t count,
                     std::size_t row_bytes,
                     const std::vector<std::uint8_t>& expected,
                     const std::string& what) {
  std::vector<std::vector<std::uint8_t>> rows(
      count, std::vector<std::uint8_t>(row_bytes));
  std::vector<std::uint8_t*> pointers;
  for (auto& row : rows) pointers.push_back(row.data());
  fill(seed, pointers.data(), count, row_bytes);
  for (std::size_t j = 0; j < count; ++j) {
    ASSERT_TRUE(std::equal(rows[j].begin(), rows[j].end(),
                           expected.begin() + j * row_bytes))
        << what << ", row " << j << " of " << count << " rows of "
        << row_bytes << " bytes, seed " << seed;
  }
}

// kMaxM files, file f of m = f + 1 blocks.
VersionedBroadcastServer MakeServer(std::size_t block_size) {
  std::vector<broadcast::FlatFileSpec> files;
  for (std::uint32_t m = 1; m <= kMaxM; ++m) {
    files.push_back({"f" + std::to_string(m), m, m + 1, {}});
  }
  auto program =
      broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kSpread);
  EXPECT_TRUE(program.ok()) << program.status();
  VersionedServerOptions options;
  options.block_size = block_size;
  options.update_interval_slots.assign(kMaxM, 1);
  options.content_seed = 7;
  auto server = VersionedBroadcastServer::Create(*program, options);
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(*server);
}

// ContentsOf's seed for (file, version) at content_seed 7.
std::uint64_t SeedOf(broadcast::FileIndex file, std::uint64_t version) {
  return 7 * 0x9E3779B97F4A7C15ULL + file * 1000003ULL + version;
}

// First so that the jump cache is cold: several threads meet lane lengths
// and powers that nothing has built yet, at once.
TEST(ContentsConcurrencyTest, ThreadsSynthesizeOnAColdJumpCache) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRowBytes = 8 * 1111;
  std::atomic<bool> go{false};
  std::vector<std::vector<std::uint8_t>> out(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // 5, 7, 9 or 131 rows: lane lengths no other test uses, the last
      // needing the power T^(2^14), which no other test reaches.
      const std::size_t count = 5 + 2 * t + (t == kThreads - 1 ? 120 : 0);
      out[t].resize(count * kRowBytes);
      std::vector<std::uint8_t*> rows;
      for (std::size_t j = 0; j < count; ++j) {
        rows.push_back(out[t].data() + j * kRowBytes);
      }
      while (!go.load(std::memory_order_acquire)) {
      }
      SynthesizeRows(1000 + t, rows.data(), count, kRowBytes);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(out[t], SerialStream(1000 + t, out[t].size())) << "thread " << t;
  }
}

TEST(ContentsTest, SerialKernelIsListedFirst) {
  const auto& kernels = ContentsKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "serial");
  for (const auto& kernel : kernels) {
    std::printf("contents kernel: %s\n", kernel.name);
  }
#if defined(__x86_64__) && defined(__GNUC__)
  EXPECT_EQ(kernels.size(), __builtin_cpu_supports("avx2") ? 2u : 1u);
  if (kernels.size() > 1) {
    EXPECT_STREQ(kernels.back().name, "avx2");
  }
#endif
}

TEST(ContentsTest, ContentsOfAndEveryKernelMatchTheSerialLoop) {
  for (const std::size_t block_size : kBlockSizes) {
    const VersionedBroadcastServer server = MakeServer(block_size);
    for (broadcast::FileIndex file = 0; file < kMaxM; ++file) {
      const std::size_t m = file + 1;
      for (std::uint64_t version = 0; version < kSeeds; ++version) {
        const std::uint64_t seed = SeedOf(file, version);
        const std::vector<std::uint8_t> expected =
            SerialStream(seed, m * block_size);
        ASSERT_EQ(server.ContentsOf(file, version), expected)
            << "m " << m << ", block size " << block_size << ", version "
            << version;
        for (const auto& kernel : ContentsKernels()) {
          ExpectRowsMatch(kernel.fill, seed, m, block_size, expected,
                          kernel.name);
        }
        ExpectRowsMatch(SynthesizeRows, seed, m, block_size, expected,
                        "SynthesizeRows");
      }
    }
  }
}

TEST(ContentsTest, LanesCoverStreamsShorterThanEightDraws) {
  // Below eight draws the lanes are empty and the serial tail writes all
  // of the stream; at the lane threshold's edge they take all but a few.
  for (const auto& kernel : ContentsKernels()) {
    for (std::size_t count = 1; count <= 9; ++count) {
      for (const std::size_t row_bytes : {8u, 16u, 24u, 56u, 1032u}) {
        ExpectRowsMatch(kernel.fill, count * 31 + row_bytes, count, row_bytes,
                        SerialStream(count * 31 + row_bytes, count * row_bytes),
                        kernel.name);
      }
    }
  }
}

TEST(ContentsTest, RowsNeedNotBeContiguous) {
  // The commit path writes a stripe's rows into separate payloads; rows in
  // any order in memory receive the same bytes as one vector does.
  constexpr std::size_t kRows = 6;
  constexpr std::size_t kRowBytes = 4096;
  std::vector<std::uint8_t> arena(kRows * kRowBytes);
  std::vector<std::uint8_t*> rows;
  for (std::size_t j = 0; j < kRows; ++j) {
    rows.push_back(arena.data() + (kRows - 1 - j) * kRowBytes);
  }
  SynthesizeRows(99, rows.data(), kRows, kRowBytes);
  const std::vector<std::uint8_t> expected =
      SerialStream(99, kRows * kRowBytes);
  for (std::size_t j = 0; j < kRows; ++j) {
    EXPECT_TRUE(std::equal(rows[j], rows[j] + kRowBytes,
                           expected.begin() + j * kRowBytes))
        << "row " << j;
  }
}

}  // namespace
}  // namespace bdisk::sim
