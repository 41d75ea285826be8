// Tests for the Section 5 block-size chooser.

#include "bdisk/block_size.h"

#include <gtest/gtest.h>

#include <string>

#include "pinwheel/composite_scheduler.h"

namespace bdisk::broadcast {
namespace {

TEST(BlockSizeTest, Validation) {
  pinwheel::CompositeScheduler scheduler;
  EXPECT_FALSE(ChooseLargestFeasibleBlockSize({}, 1000, scheduler).ok());
  EXPECT_FALSE(ChooseLargestFeasibleBlockSize(
                   {{"f", 100, 1.0, 0}}, 0, scheduler)
                   .ok());
  EXPECT_FALSE(ChooseLargestFeasibleBlockSize(
                   {{"f", 0, 1.0, 0}}, 1000, scheduler)
                   .ok());
  EXPECT_FALSE(ChooseLargestFeasibleBlockSize(
                   {{"f", 100, 0.0, 0}}, 1000, scheduler)
                   .ok());
}

TEST(BlockSizeTest, PicksLargestFeasible) {
  // Four 16 KiB files, 0.5 s deadlines, 1 fault, 192 KiB/s channel: per
  // the block-size bench, 8 KiB works and 16 KiB does not.
  std::vector<ByteFileSpec> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back({"f" + std::to_string(i), 16 * 1024, 0.5, 1});
  }
  pinwheel::CompositeScheduler scheduler;
  auto choice = ChooseLargestFeasibleBlockSize(files, 192 * 1024, scheduler);
  ASSERT_TRUE(choice.ok()) << choice.status();
  EXPECT_EQ(choice->block_size, 8u * 1024);
  EXPECT_EQ(choice->bandwidth_blocks_per_second, 24u);
  ASSERT_EQ(choice->dispersal_levels.size(), 4u);
  EXPECT_EQ(choice->dispersal_levels[0], 2u);  // 16 KiB / 8 KiB.
  EXPECT_TRUE(choice->build.program.VerifyBroadcastConditions().ok());
}

TEST(BlockSizeTest, CustomCandidateLadder) {
  std::vector<ByteFileSpec> files{{"a", 4096, 1.0, 0}};
  pinwheel::CompositeScheduler scheduler;
  auto choice = ChooseLargestFeasibleBlockSize(files, 64 * 1024, scheduler,
                                               {1000, 2000, 500});
  ASSERT_TRUE(choice.ok()) << choice.status();
  EXPECT_EQ(choice->block_size, 2000u);
}

TEST(BlockSizeTest, InfeasibleEverywhere) {
  // Deadline shorter than the file itself at any block size on this
  // channel.
  std::vector<ByteFileSpec> files{{"big", 1024 * 1024, 0.01, 0}};
  pinwheel::CompositeScheduler scheduler;
  auto choice = ChooseLargestFeasibleBlockSize(files, 8 * 1024, scheduler);
  EXPECT_TRUE(choice.status().IsInfeasible());
}

// A latency whose window passes 2^64 slots at the first candidate passes
// it at every smaller one: the spec is malformed, not infeasible, and the
// error names the file.
TEST(BlockSizeTest, MalformedSpecIsInvalidArgument) {
  pinwheel::CompositeScheduler scheduler;
  auto choice = ChooseLargestFeasibleBlockSize(
      {{"a", 16384, 0.5, 1}, {"nav", 16384, 1e300, 1}}, 196608, scheduler);
  EXPECT_TRUE(choice.status().IsInvalidArgument()) << choice.status();
  EXPECT_NE(choice.status().message().find("'nav'"), std::string::npos);
}

TEST(BlockSizeTest, SmallerBlocksRescueTightSystems) {
  // A system that fits only when block granularity is fine enough: two
  // 1 KiB files with sub-second deadlines on a 16 KiB/s channel. At 1 KiB
  // blocks (m = 1, bandwidth 16), windows hold only m + r = 2 > 16*0.4 =
  // 6 slots? -> fine; at 8 KiB blocks bandwidth is 2 blocks/s and the
  // 0.4 s window holds 0 slots -> infeasible.
  std::vector<ByteFileSpec> files{
      {"x", 1024, 0.4, 1},
      {"y", 1024, 0.9, 1},
  };
  pinwheel::CompositeScheduler scheduler;
  auto choice = ChooseLargestFeasibleBlockSize(files, 16 * 1024, scheduler,
                                               {8192, 1024, 256});
  ASSERT_TRUE(choice.ok()) << choice.status();
  EXPECT_LT(choice->block_size, 8192u);
}

}  // namespace
}  // namespace bdisk::broadcast
