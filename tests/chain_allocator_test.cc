// Unit and property tests for the residue-class chain allocator.

#include "pinwheel/chain_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/random.h"
#include "pinwheel/verifier.h"

namespace bdisk::pinwheel {
namespace {

TEST(SmallestPrimeFactorTest, Basics) {
  EXPECT_EQ(SmallestPrimeFactor(2), 2u);
  EXPECT_EQ(SmallestPrimeFactor(3), 3u);
  EXPECT_EQ(SmallestPrimeFactor(4), 2u);
  EXPECT_EQ(SmallestPrimeFactor(9), 3u);
  EXPECT_EQ(SmallestPrimeFactor(15), 3u);
  EXPECT_EQ(SmallestPrimeFactor(97), 97u);
  EXPECT_EQ(SmallestPrimeFactor(91), 7u);
}

TEST(ChainAllocatorTest, RejectsZeroPeriodOrCount) {
  EXPECT_TRUE(ChainAllocator::Allocate({{1, 0, 1}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ChainAllocator::Allocate({{1, 4, 0}})
                  .status()
                  .IsInvalidArgument());
}

TEST(ChainAllocatorTest, SingleTaskFullDensity) {
  auto a = ChainAllocator::Allocate({{1, 1, 1}});
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->size(), 1u);
  EXPECT_EQ((*a)[0].offset, 0u);
  EXPECT_EQ((*a)[0].period, 1u);
}

TEST(ChainAllocatorTest, PowerOfTwoChainExactFit) {
  // Densities 1/2 + 1/4 + 1/4 = 1; all must fit.
  auto a = ChainAllocator::Allocate({{1, 2, 1}, {2, 4, 1}, {3, 4, 1}});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->size(), 3u);
  // Distinct residue classes.
  std::map<std::uint64_t, int> slot_owner;
  for (const ClassAssignment& c : *a) {
    for (std::uint64_t t = c.offset; t < 8; t += c.period) {
      EXPECT_EQ(slot_owner.count(t), 0u) << "slot " << t;
      slot_owner[t] = 1;
    }
  }
}

TEST(ChainAllocatorTest, OverfullChainFails) {
  // 1/2 + 1/2 + 1/4 > 1.
  auto a = ChainAllocator::Allocate({{1, 2, 1}, {2, 2, 1}, {3, 4, 1}});
  EXPECT_TRUE(a.status().IsInfeasible());
}

TEST(ChainAllocatorTest, MultiCountRequest) {
  // One task wanting 3 classes of period 4 (density 3/4).
  auto a = ChainAllocator::Allocate({{1, 4, 3}});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->size(), 3u);
  for (const ClassAssignment& c : *a) {
    EXPECT_EQ(c.period, 4u);
    EXPECT_EQ(c.task, 1u);
  }
}

TEST(ChainAllocatorTest, NonChainPeriodsBestEffort) {
  // Periods 2 and 3 are not chain-related; density 1/2 + 1/3 <= 1 but the
  // trie cannot always place them — here it can (split 1 -> 2, then the
  // spare class by 3).
  auto a = ChainAllocator::Allocate({{1, 2, 1}, {2, 6, 1}});
  ASSERT_TRUE(a.ok());
}

// Property: any power-of-two-period request set with density <= 1 is
// allocated, and the resulting schedule serves each task every `period`.
TEST(ChainAllocatorTest, PropertyChainDensityOneAlwaysFits) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    // Build random power-of-two requests filling density exactly <= 1.
    std::vector<ClassRequest> requests;
    double density = 0.0;
    TaskId next_id = 1;
    while (true) {
      const std::uint64_t period = 1ULL << (1 + rng.Uniform(5));  // 2..32
      const double d = 1.0 / static_cast<double>(period);
      if (density + d > 1.0 + 1e-12) break;
      requests.push_back({next_id++, period, 1});
      density += d;
      if (requests.size() > 30) break;
    }
    auto assignments = ChainAllocator::Allocate(requests);
    ASSERT_TRUE(assignments.ok()) << "trial " << trial;
    auto schedule = ChainAllocator::ToSchedule(*assignments);
    ASSERT_TRUE(schedule.ok());
    for (const ClassRequest& req : requests) {
      EXPECT_GE(Verifier::MinWindowCount(*schedule, req.task, req.period), 1u);
    }
  }
}

TEST(ChainAllocatorTest, MixedChainWithBase3) {
  // Chain {3, 6, 12}: density 1/3 + 1/6 + 2/12 <= 1.
  auto a = ChainAllocator::Allocate({{1, 3, 1}, {2, 6, 1}, {3, 12, 2}});
  ASSERT_TRUE(a.ok());
  auto s = ChainAllocator::ToSchedule(*a);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->period(), 12u);
  EXPECT_GE(Verifier::MinWindowCount(*s, 1, 3), 1u);
  EXPECT_GE(Verifier::MinWindowCount(*s, 2, 6), 1u);
  EXPECT_GE(Verifier::MinWindowCount(*s, 3, 12), 2u);
}

TEST(ToScheduleTest, RejectsEmptyAndMalformed) {
  EXPECT_TRUE(ChainAllocator::ToSchedule({}).status().IsInvalidArgument());
  EXPECT_TRUE(ChainAllocator::ToSchedule({{1, 5, 4}})
                  .status()
                  .IsInvalidArgument());  // offset >= period
}

TEST(ToScheduleTest, DetectsCollision) {
  // Two classes covering the same slots.
  Status s = ChainAllocator::ToSchedule({{1, 0, 2}, {2, 0, 4}}).status();
  EXPECT_TRUE(s.IsInternal());
}

TEST(ToScheduleTest, PeriodCapEnforced) {
  Status s =
      ChainAllocator::ToSchedule({{1, 0, 3}, {2, 1, 65536}}, 1000).status();
  EXPECT_TRUE(s.IsResourceExhausted());
}

TEST(ToScheduleTest, IdleSlotsWhereUnassigned) {
  auto s = ChainAllocator::ToSchedule({{1, 0, 4}});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->period(), 4u);
  EXPECT_EQ(std::count(s->slots().begin(), s->slots().end(), 1u), 1);
  EXPECT_EQ(
      std::count(s->slots().begin(), s->slots().end(), Schedule::kIdle), 3);
}

TEST(ChainAllocatorTest, DeterministicOutput) {
  const std::vector<ClassRequest> requests{{1, 4, 1}, {2, 8, 2}, {3, 2, 1}};
  auto a1 = ChainAllocator::Allocate(requests);
  auto a2 = ChainAllocator::Allocate(requests);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  ASSERT_EQ(a1->size(), a2->size());
  for (std::size_t i = 0; i < a1->size(); ++i) {
    EXPECT_EQ((*a1)[i].offset, (*a2)[i].offset);
    EXPECT_EQ((*a1)[i].period, (*a2)[i].period);
  }
}

}  // namespace
}  // namespace bdisk::pinwheel
