// Tests for the bandwidth planner (Equations (1) and (2) of the paper).

#include "bdisk/bandwidth.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "pinwheel/composite_scheduler.h"
#include "pinwheel/verifier.h"

namespace bdisk::broadcast {
namespace {

std::vector<FileSpec> AwacsFiles() {
  // The paper's motivating example: aircraft positions need 400 ms
  // temporal consistency, tank positions 6000 ms. Sizes in blocks; with
  // one fault to tolerate each.
  return {
      {"aircraft", 4, 0.4, 1},
      {"tanks", 8, 6.0, 1},
      {"terrain", 16, 10.0, 0},
  };
}

TEST(FileSpecTest, Validation) {
  FileSpec ok{"f", 2, 1.0, 0};
  EXPECT_TRUE(ok.Validate().ok());
  FileSpec zero_size{"f", 0, 1.0, 0};
  EXPECT_TRUE(zero_size.Validate().IsInvalidArgument());
  FileSpec bad_latency{"f", 2, 0.0, 0};
  EXPECT_TRUE(bad_latency.Validate().IsInvalidArgument());
}

TEST(FileSpecTest, DemandBlocksPerSecond) {
  FileSpec f{"f", 4, 0.4, 1};
  EXPECT_NEAR(f.DemandBlocksPerSecond(), 12.5, 1e-12);
}

TEST(BandwidthPlannerTest, WindowTooSmallForItsBlocksIsInfeasible) {
  const std::vector<FileSpec> files{{"f", 4, 0.5, 2}};
  auto inst = BandwidthPlanner::ToPinwheelInstance(files, 20);
  ASSERT_TRUE(inst.ok()) << inst.status();
  EXPECT_EQ(inst->tasks()[0].a, 6u);  // m + r
  EXPECT_EQ(inst->tasks()[0].b, 10u);
  // A window of 5 slots cannot hold m + r = 6 blocks.
  EXPECT_TRUE(
      BandwidthPlanner::ToPinwheelInstance(files, 10).status().IsInfeasible());
}

TEST(BandwidthPlannerTest, LowerBoundIsSumOfDemands) {
  const auto files = AwacsFiles();
  auto lower = BandwidthPlanner::LowerBound(files);
  ASSERT_TRUE(lower.ok());
  EXPECT_NEAR(*lower, (4.0 + 1) / 0.4 + (8.0 + 1) / 6.0 + 16.0 / 10.0,
              1e-12);
}

TEST(BandwidthPlannerTest, SufficientBandwidthIsTenSeventhsCeil) {
  const auto files = AwacsFiles();
  auto lower = BandwidthPlanner::LowerBound(files);
  auto sufficient = BandwidthPlanner::SufficientBandwidth(files);
  ASSERT_TRUE(lower.ok());
  ASSERT_TRUE(sufficient.ok());
  EXPECT_EQ(*sufficient,
            static_cast<std::uint64_t>(std::ceil(*lower * 10.0 / 7.0)));
  // At most 43% above the lower bound (plus integer rounding).
  EXPECT_LE(static_cast<double>(*sufficient), *lower * 10.0 / 7.0 + 1.0);
}

TEST(BandwidthPlannerTest, EmptyFilesRejected) {
  EXPECT_FALSE(BandwidthPlanner::LowerBound({}).ok());
  EXPECT_FALSE(BandwidthPlanner::SufficientBandwidth({}).ok());
  EXPECT_FALSE(BandwidthPlanner::ToPinwheelInstance({}, 5).ok());
}

TEST(BandwidthPlannerTest, ToPinwheelInstanceShape) {
  const std::vector<FileSpec> files{{"a", 5, 2.0, 1}, {"b", 3, 1.0, 0}};
  auto inst = BandwidthPlanner::ToPinwheelInstance(files, 10);
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(inst->size(), 2u);
  // Task 0: (m + r, floor(B * T)) = (6, 20); task 1: (3, 10).
  EXPECT_EQ(inst->tasks()[0].a, 6u);
  EXPECT_EQ(inst->tasks()[0].b, 20u);
  EXPECT_EQ(inst->tasks()[1].a, 3u);
  EXPECT_EQ(inst->tasks()[1].b, 10u);
}

// A latency so long that B * T passes 2^64 slots (or is infinite) has no
// integer window: a typed error naming the file, not an undefined
// float-to-integer conversion.
TEST(BandwidthPlannerTest, WindowPastSixtyFourBitsRejected) {
  const std::vector<FileSpec> files{{"nav", 257, 1e300, 1}};
  auto inst = BandwidthPlanner::ToPinwheelInstance(files, 3072);
  ASSERT_FALSE(inst.ok());
  EXPECT_TRUE(inst.status().IsInvalidArgument()) << inst.status();
  EXPECT_NE(inst.status().message().find("'nav'"), std::string::npos);
  const FileSpec forever{"nav", 1, std::numeric_limits<double>::infinity(),
                         0};
  EXPECT_TRUE(forever.WindowSlots(3072).status().IsInvalidArgument());
  auto window = FileSpec{"nav", 1, 0.5, 0}.WindowSlots(3072);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(*window, 1536u);
}

// A latency so short that the demand's ceiling passes 2^64 blocks/sec has
// no integer bandwidth either, and neither has four times a sufficient
// bandwidth past 2^62 (FindMinimalBandwidth's default upper end).
TEST(BandwidthPlannerTest, RatePastSixtyFourBitsRejected) {
  const std::vector<FileSpec> files{{"nav", 4, 1e-300, 1}};
  EXPECT_TRUE(BandwidthPlanner::SufficientBandwidth(files)
                  .status()
                  .IsInvalidArgument());
  pinwheel::CompositeScheduler scheduler;
  EXPECT_TRUE(BandwidthPlanner::FindMinimalBandwidth(files, scheduler)
                  .status()
                  .IsInvalidArgument());
  // 1 / (0.7 * 2^63) s: a sufficient bandwidth of ~2^63 blocks/sec.
  const std::vector<FileSpec> brief{{"nav", 1, 1.0 / (0.7 * 0x1p63), 0}};
  auto sufficient = BandwidthPlanner::SufficientBandwidth(brief);
  ASSERT_TRUE(sufficient.ok()) << sufficient.status();
  EXPECT_GT(*sufficient, std::numeric_limits<std::uint64_t>::max() / 4);
  EXPECT_TRUE(BandwidthPlanner::FindMinimalBandwidth(brief, scheduler)
                  .status()
                  .IsInvalidArgument());
}

TEST(BandwidthPlannerTest, InsufficientBandwidthInfeasible) {
  const std::vector<FileSpec> files{{"a", 5, 1.0, 0}};
  EXPECT_TRUE(
      BandwidthPlanner::ToPinwheelInstance(files, 4).status().IsInfeasible());
}

// The paper's core claim, end to end: the Eq. (2) bandwidth suffices for
// the pinwheel schedulers to produce a verified program, on the AWACS
// files and on 20 seeded random workloads of 2-7 files, so the smallest
// bandwidth they schedule at never exceeds it.
TEST(BandwidthPlannerTest, SufficientBandwidthActuallySchedules) {
  std::vector<std::vector<FileSpec>> workloads{AwacsFiles()};
  Rng rng(2024);
  for (int c = 0; c < 20; ++c) {
    const std::size_t n_files = 2 + rng.Uniform(6);
    std::vector<FileSpec> files;
    for (std::size_t i = 0; i < n_files; ++i) {
      FileSpec f;
      f.name = "f" + std::to_string(i);
      f.size_blocks = 1 + rng.Uniform(16);
      f.latency_seconds = 0.25 * static_cast<double>(1 + rng.Uniform(16));
      f.fault_tolerance = rng.Uniform(3);
      files.push_back(std::move(f));
    }
    workloads.push_back(std::move(files));
  }
  pinwheel::CompositeScheduler scheduler;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const std::vector<FileSpec>& files = workloads[w];
    auto sufficient = BandwidthPlanner::SufficientBandwidth(files);
    ASSERT_TRUE(sufficient.ok());
    auto inst = BandwidthPlanner::ToPinwheelInstance(files, *sufficient);
    ASSERT_TRUE(inst.ok());
    EXPECT_LE(inst->density(), BandwidthPlanner::kSchedulableDensity + 0.05)
        << "workload " << w;
    auto schedule = scheduler.BuildSchedule(*inst);
    ASSERT_TRUE(schedule.ok()) << "workload " << w << ": " << schedule.status();
    EXPECT_TRUE(pinwheel::Verifier::Verify(*schedule, *inst).ok());
    auto minimal = BandwidthPlanner::FindMinimalBandwidth(files, scheduler);
    ASSERT_TRUE(minimal.ok()) << "workload " << w << ": " << minimal.status();
    EXPECT_LE(minimal->bandwidth, *sufficient) << "workload " << w;
  }
}

TEST(BandwidthPlannerTest, FindMinimalBandwidth) {
  const auto files = AwacsFiles();
  pinwheel::CompositeScheduler scheduler;
  auto minimal = BandwidthPlanner::FindMinimalBandwidth(files, scheduler);
  ASSERT_TRUE(minimal.ok()) << minimal.status();
  auto lower = BandwidthPlanner::LowerBound(files);
  auto sufficient = BandwidthPlanner::SufficientBandwidth(files);
  ASSERT_TRUE(lower.ok());
  ASSERT_TRUE(sufficient.ok());
  // Minimal feasible bandwidth sits between the bounds.
  EXPECT_GE(static_cast<double>(minimal->bandwidth), std::floor(*lower));
  EXPECT_LE(minimal->bandwidth, *sufficient);
  // The returned schedule really works at that bandwidth.
  auto inst = BandwidthPlanner::ToPinwheelInstance(files, minimal->bandwidth);
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(pinwheel::Verifier::Verify(minimal->schedule, *inst).ok());
}

TEST(GeneralizedFileSpecTest, Validation) {
  GeneralizedFileSpec ok{"g", 2, {8, 10}};
  EXPECT_TRUE(ok.Validate().ok());
  EXPECT_EQ(ok.fault_tolerance(), 1u);
  GeneralizedFileSpec bad{"g", 2, {8, 2}};
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
  GeneralizedFileSpec empty{"g", 2, {}};
  EXPECT_FALSE(empty.Validate().ok());
}

TEST(GeneralizedFileSpecTest, ToBroadcastCondition) {
  GeneralizedFileSpec g{"g", 3, {9, 12, 15}};
  const auto bc = g.ToBroadcastCondition();
  EXPECT_EQ(bc.m, 3u);
  EXPECT_EQ(bc.d, (std::vector<std::uint64_t>{9, 12, 15}));
}

}  // namespace
}  // namespace bdisk::broadcast
