// Unit tests for the pinwheel task model.

#include "pinwheel/task.h"

#include <gtest/gtest.h>

namespace bdisk::pinwheel {
namespace {

TEST(TaskTest, DensityAndToString) {
  Task t{1, 2, 5};
  EXPECT_DOUBLE_EQ(t.density(), 0.4);
  EXPECT_EQ(t.ToString(), "(1, 2, 5)");
}

TEST(InstanceTest, CreateValid) {
  auto inst = Instance::Create({{1, 1, 2}, {2, 1, 3}});
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst->size(), 2u);
  EXPECT_FALSE(inst->empty());
}

TEST(InstanceTest, RejectsZeroRequirement) {
  EXPECT_TRUE(Instance::Create({{1, 0, 2}}).status().IsInvalidArgument());
}

TEST(InstanceTest, RejectsZeroWindow) {
  EXPECT_TRUE(Instance::Create({{1, 1, 0}}).status().IsInvalidArgument());
}

TEST(InstanceTest, RejectsRequirementAboveWindow) {
  EXPECT_TRUE(Instance::Create({{1, 3, 2}}).status().IsInvalidArgument());
}

TEST(InstanceTest, RejectsDuplicateIds) {
  Status s = Instance::Create({{1, 1, 2}, {1, 1, 3}}).status();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("nice"), std::string::npos);
}

TEST(InstanceTest, AllowsFullWindowTask) {
  EXPECT_TRUE(Instance::Create({{1, 4, 4}}).ok());
}

// The paper's Example 1 densities.
TEST(InstanceTest, Example1Densities) {
  auto first = Instance::Create({{1, 1, 2}, {2, 1, 3}});
  ASSERT_TRUE(first.ok());
  EXPECT_NEAR(first->density(), 1.0 / 2 + 1.0 / 3, 1e-12);

  auto second = Instance::Create({{1, 2, 5}, {2, 1, 3}});
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(second->density(), 2.0 / 5 + 1.0 / 3, 1e-12);

  auto third = Instance::Create({{1, 1, 2}, {2, 1, 3}, {3, 1, 100}});
  ASSERT_TRUE(third.ok());
  EXPECT_NEAR(third->density(), 1.0 / 2 + 1.0 / 3 + 1.0 / 100, 1e-12);
}

TEST(InstanceTest, ToStringMatchesPaperNotation) {
  auto inst = Instance::Create({{1, 1, 2}, {2, 1, 3}});
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst->ToString(), "{(1, 1, 2), (2, 1, 3)}");
}

}  // namespace
}  // namespace bdisk::pinwheel
