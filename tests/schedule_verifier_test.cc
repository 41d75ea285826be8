// Unit tests for Schedule and the exhaustive Verifier.

#include <gtest/gtest.h>

#include "pinwheel/schedule.h"
#include "pinwheel/task.h"
#include "pinwheel/verifier.h"

namespace bdisk::pinwheel {
namespace {

Schedule MakeSchedule(std::vector<TaskId> cycle) {
  auto s = Schedule::FromCycle(std::move(cycle));
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(ScheduleTest, EmptyCycleRejected) {
  EXPECT_TRUE(Schedule::FromCycle({}).status().IsInvalidArgument());
}

TEST(ScheduleTest, BasicAccessors) {
  const Schedule s = MakeSchedule({1, 2, 1, Schedule::kIdle});
  EXPECT_EQ(s.period(), 4u);
  EXPECT_EQ(s.At(0), 1u);
  EXPECT_EQ(s.At(5), 2u);  // Wraps.
  EXPECT_EQ(s.slots(), (std::vector<TaskId>{1, 2, 1, Schedule::kIdle}));
}

TEST(ScheduleTest, ToStringUsesStarForIdle) {
  const Schedule s = MakeSchedule({1, Schedule::kIdle, 2});
  EXPECT_EQ(s.ToString(), "1, *, 2");
}

// Example 1, first system: {(1,1,2),(2,1,3)} scheduled as 1,2,1,2,...
TEST(VerifierTest, Example1FirstSystem) {
  const Schedule s = MakeSchedule({1, 2});
  auto inst = Instance::Create({{1, 1, 2}, {2, 1, 3}});
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(Verifier::Verify(s, *inst).ok());
}

// Example 1, second system: {(1,2,5),(2,1,3)} scheduled as
// 1,2,1,*,2,1,2,1,*,2,...  (period 5 shown twice in the paper).
TEST(VerifierTest, Example1SecondSystem) {
  const Schedule s = MakeSchedule({1, 2, 1, Schedule::kIdle, 2});
  auto inst = Instance::Create({{1, 2, 5}, {2, 1, 3}});
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(Verifier::Verify(s, *inst).ok());
}

TEST(VerifierTest, DetectsViolation) {
  const Schedule s = MakeSchedule({1, 2});
  auto inst = Instance::Create({{1, 1, 2}, {2, 2, 3}});
  ASSERT_TRUE(inst.ok());
  Status status = Verifier::Verify(s, *inst);
  EXPECT_TRUE(status.IsInfeasible());
  EXPECT_NE(status.message().find("pc(2, 2, 3)"), std::string::npos);
}

TEST(VerifierTest, MinWindowCountBasic) {
  const Schedule s = MakeSchedule({1, 2, 1, 2});
  EXPECT_EQ(Verifier::MinWindowCount(s, 1, 1), 0u);
  EXPECT_EQ(Verifier::MinWindowCount(s, 1, 2), 1u);
  EXPECT_EQ(Verifier::MinWindowCount(s, 1, 3), 1u);
  EXPECT_EQ(Verifier::MinWindowCount(s, 1, 4), 2u);
}

TEST(VerifierTest, MinWindowCountReportsWorstStart) {
  const Schedule s = MakeSchedule({1, 1, Schedule::kIdle, Schedule::kIdle});
  std::uint64_t worst = 99;
  EXPECT_EQ(Verifier::MinWindowCount(s, 1, 2, &worst), 0u);
  EXPECT_EQ(worst, 2u);  // Window [2,4) has no task-1 slot.
}

TEST(VerifierTest, WindowLargerThanPeriod) {
  const Schedule s = MakeSchedule({1, 2, Schedule::kIdle});
  // Window 7 = 2 full periods (2 ones) + remainder 1 (worst: 0 extra).
  EXPECT_EQ(Verifier::MinWindowCount(s, 1, 7), 2u);
  // Window 6 = exactly 2 periods.
  EXPECT_EQ(Verifier::MinWindowCount(s, 1, 6), 2u);
}

TEST(VerifierTest, WindowEqualsPeriod) {
  const Schedule s = MakeSchedule({1, 1, 2});
  EXPECT_EQ(Verifier::MinWindowCount(s, 1, 3), 2u);
}

TEST(VerifierTest, IdleTaskCounting) {
  const Schedule s = MakeSchedule({1, Schedule::kIdle});
  EXPECT_EQ(Verifier::MinWindowCount(s, Schedule::kIdle, 2), 1u);
}

TEST(VerifierTest, CheckConditionStruct) {
  // Task 1 at slot 0 of a period-2 cycle: 1, 2, 1, 2, ...
  ConditionCheck c = Verifier::CheckCondition({0}, 2, 1, 1, 2);
  EXPECT_TRUE(c.satisfied);
  EXPECT_EQ(c.min_count, 1u);
  c = Verifier::CheckCondition({0}, 2, 1, 2, 2);
  EXPECT_FALSE(c.satisfied);
  EXPECT_NE(c.ToString().find("VIOLATED"), std::string::npos);
}

TEST(VerifierTest, CheckAllReturnsPerTaskResults) {
  const Schedule s = MakeSchedule({1, 2, 1});
  auto inst = Instance::Create({{1, 2, 3}, {2, 1, 3}});
  ASSERT_TRUE(inst.ok());
  auto checks = Verifier::CheckAll(s, *inst);
  ASSERT_EQ(checks.size(), 2u);
  EXPECT_TRUE(checks[0].satisfied);
  EXPECT_TRUE(checks[1].satisfied);
}

// A task absent from the schedule fails any condition.
TEST(VerifierTest, AbsentTaskFails) {
  const Schedule s = MakeSchedule({1, 1});
  auto inst = Instance::Create({{2, 1, 10}});
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(Verifier::Verify(s, *inst).IsInfeasible());
}

}  // namespace
}  // namespace bdisk::pinwheel
