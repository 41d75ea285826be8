// Seeded multi-disk broadcast programs for the tests that hold an analysis
// to a brute-force sweep of a whole program data cycle:
// delay_analysis_test.cc and multi_disk_test.cc. Each test is its own
// binary, so this is header-only.

#ifndef BDISK_TESTS_SEEDED_PROGRAMS_H_
#define BDISK_TESTS_SEEDED_PROGRAMS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bdisk/multi_disk.h"
#include "common/random.h"

namespace bdisk::broadcast::seeded_programs {

// `count` programs drawn from `seed`: 1-3 disks of relative frequency 1-3,
// each holding 1-3 files with m in 1..6 and n in m..m+4. Every other
// program has its period's slots shuffled, so its files' gaps are uneven,
// unlike the generator's evenly spread chunks. A draw whose data cycle
// passes `max_data_cycle` slots is dropped and redrawn.
inline std::vector<BroadcastProgram> SeededPrograms(
    std::uint64_t seed, std::size_t count, std::uint64_t max_data_cycle) {
  Rng rng(seed);
  std::vector<BroadcastProgram> programs;
  while (programs.size() < count) {
    std::vector<DiskSpec> disks(1 + rng.Uniform(3));
    int file = 0;
    for (DiskSpec& disk : disks) {
      disk.relative_frequency = static_cast<std::uint32_t>(1 + rng.Uniform(3));
      const std::uint64_t files = 1 + rng.Uniform(3);
      for (std::uint64_t i = 0; i < files; ++i) {
        const auto m = static_cast<std::uint32_t>(1 + rng.Uniform(6));
        const auto n = static_cast<std::uint32_t>(m + rng.Uniform(5));
        disk.files.push_back({"F" + std::to_string(file++), m, n, {}});
      }
    }
    auto multi = BuildMultiDiskProgram(disks);
    EXPECT_TRUE(multi.ok()) << multi.status();
    if (!multi.ok()) break;
    if (multi->program.DataCycleLength() > max_data_cycle) continue;
    if (programs.size() % 2 == 0) {
      programs.push_back(std::move(multi->program));
      continue;
    }
    std::vector<FileIndex> slots = multi->program.slots();
    for (std::size_t i = slots.size() - 1; i > 0; --i) {
      std::swap(slots[i], slots[rng.Uniform(i + 1)]);
    }
    auto shuffled = BroadcastProgram::Create(multi->program.files(), slots);
    EXPECT_TRUE(shuffled.ok()) << shuffled.status();
    if (!shuffled.ok()) break;
    programs.push_back(std::move(*shuffled));
  }
  return programs;
}

}  // namespace bdisk::broadcast::seeded_programs

#endif  // BDISK_TESTS_SEEDED_PROGRAMS_H_
