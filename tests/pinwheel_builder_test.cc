// End-to-end tests for the pinwheel-based program builders.

#include "bdisk/pinwheel_builder.h"

#include <gtest/gtest.h>

#include "bdisk/bandwidth.h"
#include "pinwheel/composite_scheduler.h"

namespace bdisk::broadcast {
namespace {

TEST(BuildProgramTest, RegularFilesEndToEnd) {
  const std::vector<FileSpec> files{
      {"fast", 2, 1.0, 1},
      {"slow", 4, 4.0, 0},
  };
  auto bandwidth = BandwidthPlanner::SufficientBandwidth(files);
  ASSERT_TRUE(bandwidth.ok());
  pinwheel::CompositeScheduler scheduler;
  auto result = BuildProgram(files, *bandwidth, scheduler);
  ASSERT_TRUE(result.ok()) << result.status();

  const BroadcastProgram& p = result->program;
  EXPECT_EQ(p.file_count(), 2u);
  EXPECT_TRUE(p.VerifyBroadcastConditions().ok());
  // n_i = m_i + r_i by default.
  EXPECT_EQ(p.files()[0].n, 3u);
  EXPECT_EQ(p.files()[1].n, 4u);
  EXPECT_GT(result->scheduled_density, 0.0);
}

TEST(BuildProgramTest, InsufficientBandwidthFails) {
  const std::vector<FileSpec> files{{"f", 8, 1.0, 0}};
  pinwheel::CompositeScheduler scheduler;
  EXPECT_FALSE(BuildProgram(files, 4, scheduler).ok());
}

TEST(BuildGeneralizedProgramTest, PaperStyleLatencyVectors) {
  // Files with degrading latency tolerances under faults.
  const std::vector<GeneralizedFileSpec> files{
      {"critical", 2, {16, 20, 24}},
      {"relaxed", 1, {10, 30}},
  };
  pinwheel::CompositeScheduler scheduler;
  auto result = BuildGeneralizedProgram(files, scheduler);
  ASSERT_TRUE(result.ok()) << result.status();

  const BroadcastProgram& p = result->program;
  EXPECT_TRUE(p.VerifyBroadcastConditions().ok());
  EXPECT_EQ(p.files()[0].m, 2u);
  EXPECT_EQ(p.files()[0].n, 4u);  // m + r = 2 + 2.
  EXPECT_EQ(p.files()[1].n, 2u);
  // Conversion details are reported per file.
  ASSERT_EQ(result->conversions.size(), 2u);
  EXPECT_GE(result->conversions[0].best().density(),
            result->conversions[0].density_lower_bound - 1e-12);
}

TEST(BuildGeneralizedProgramTest, Example4FileBuilds) {
  // The paper's Example 4 condition bc(4, [8, 9]) as a file spec — dense
  // (lower bound 0.5556) but schedulable via the optimizer's 0.6 conjunct.
  const std::vector<GeneralizedFileSpec> files{{"ex4", 4, {8, 9}}};
  pinwheel::CompositeScheduler scheduler;
  auto result = BuildGeneralizedProgram(files, scheduler);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->program.VerifyBroadcastConditions().ok());
}

TEST(BuildGeneralizedProgramTest, InvalidSpecRejected) {
  const std::vector<GeneralizedFileSpec> files{{"bad", 4, {3}}};
  pinwheel::CompositeScheduler scheduler;
  EXPECT_FALSE(BuildGeneralizedProgram(files, scheduler).ok());
}

TEST(BuildGeneralizedProgramTest, EmptyRejected) {
  pinwheel::CompositeScheduler scheduler;
  EXPECT_FALSE(BuildGeneralizedProgram({}, scheduler).ok());
}

TEST(BuildGeneralizedProgramTest, MixedSystemDensityBudget) {
  // Several files whose combined converted density stays below 1 and
  // schedules.
  const std::vector<GeneralizedFileSpec> files{
      {"a", 1, {6}},
      {"b", 2, {14, 16}},
      {"c", 1, {9, 12}},
      {"d", 3, {40, 44, 50}},
  };
  pinwheel::CompositeScheduler scheduler;
  auto result = BuildGeneralizedProgram(files, scheduler);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->program.VerifyBroadcastConditions().ok());
  EXPECT_LE(result->scheduled_density, 1.0 + 1e-9);
}

}  // namespace
}  // namespace bdisk::broadcast
