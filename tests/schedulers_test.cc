// Unit, property, and cross-validation tests for the pinwheel schedulers.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "pinwheel/chain_schedulers.h"
#include "pinwheel/composite_scheduler.h"
#include "pinwheel/exact_scheduler.h"
#include "pinwheel/greedy_scheduler.h"
#include "pinwheel/verifier.h"

namespace bdisk::pinwheel {
namespace {

Instance MakeInstance(std::vector<Task> tasks) {
  auto inst = Instance::Create(std::move(tasks));
  EXPECT_TRUE(inst.ok());
  return *inst;
}

// All schedulers must handle the paper's Example 1 feasible systems.
class AllSchedulersTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Scheduler> Make() const {
    const std::string name = GetParam();
    if (name == "Sa") return std::make_unique<SaScheduler>();
    if (name == "Sx") return std::make_unique<SxScheduler>();
    if (name == "Sxy") return std::make_unique<SxyScheduler>();
    if (name == "Greedy") return std::make_unique<GreedyScheduler>();
    if (name == "Exact") return std::make_unique<ExactScheduler>();
    return std::make_unique<CompositeScheduler>();
  }
};

TEST_P(AllSchedulersTest, Example1FirstSystem) {
  const Instance inst = MakeInstance({{1, 1, 2}, {2, 1, 3}});
  auto schedule = Make()->BuildSchedule(inst);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  EXPECT_TRUE(Verifier::Verify(*schedule, inst).ok());
}

TEST_P(AllSchedulersTest, Example1SecondSystem) {
  const Instance inst = MakeInstance({{1, 2, 5}, {2, 1, 3}});
  auto schedule = Make()->BuildSchedule(inst);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  EXPECT_TRUE(Verifier::Verify(*schedule, inst).ok());
}

TEST_P(AllSchedulersTest, SingleTask) {
  const Instance inst = MakeInstance({{1, 1, 7}});
  auto schedule = Make()->BuildSchedule(inst);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  EXPECT_TRUE(Verifier::Verify(*schedule, inst).ok());
}

TEST_P(AllSchedulersTest, EmptyInstanceRejected) {
  EXPECT_FALSE(Make()->BuildSchedule(Instance()).ok());
}

TEST_P(AllSchedulersTest, LowDensityManyTasks) {
  std::vector<Task> tasks;
  for (TaskId i = 0; i < 8; ++i) {
    tasks.push_back({i, 1, 64 + 7 * i});
  }
  const Instance inst = MakeInstance(std::move(tasks));
  ASSERT_LE(inst.density(), 0.5);
  auto schedule = Make()->BuildSchedule(inst);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  EXPECT_TRUE(Verifier::Verify(*schedule, inst).ok());
}

INSTANTIATE_TEST_SUITE_P(Portfolio, AllSchedulersTest,
                         ::testing::Values("Sa", "Sx", "Sxy", "Greedy",
                                           "Exact", "Composite"),
                         [](const auto& info) { return info.param; });

// Property: Sa succeeds on every random instance with density <= 1/2
// (its guarantee), and its output always verifies.
TEST(SaSchedulerTest, GuaranteeAtHalfDensity) {
  Rng rng(7);
  SaScheduler sa;
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<Task> tasks;
    double density = 0.0;
    TaskId id = 0;
    while (tasks.size() < 6) {
      const std::uint64_t b = 2 + rng.Uniform(60);
      const std::uint64_t a = 1 + rng.Uniform(std::min<std::uint64_t>(b, 4));
      const double d = static_cast<double>(a) / static_cast<double>(b);
      if (density + d > 0.5) break;
      tasks.push_back({id++, a, b});
      density += d;
    }
    if (tasks.empty()) continue;
    const Instance inst = MakeInstance(std::move(tasks));
    auto schedule = sa.BuildSchedule(inst);
    ASSERT_TRUE(schedule.ok())
        << "density " << inst.density() << ": " << schedule.status();
  }
}

// Holte et al. [20]: every two-task single-unit system with density <= 1 is
// schedulable; Sx must match that (sweep all pairs up to 12).
TEST(SxSchedulerTest, TwoTaskCompleteness) {
  SxScheduler sx;
  for (std::uint64_t b1 = 2; b1 <= 12; ++b1) {
    for (std::uint64_t b2 = b1; b2 <= 12; ++b2) {
      if (1.0 / b1 + 1.0 / b2 > 1.0 + 1e-12) continue;
      const Instance inst = MakeInstance({{1, 1, b1}, {2, 1, b2}});
      auto schedule = sx.BuildSchedule(inst);
      EXPECT_TRUE(schedule.ok())
          << "(1," << b1 << "),(1," << b2 << "): " << schedule.status();
    }
  }
}

// Example 1 third system: {(1,2),(1,3),(1,n)} is infeasible for every n.
// The exact solver must prove it (single-unit => complete).
TEST(ExactSchedulerTest, ProvesExample1ThirdSystemInfeasible) {
  ExactScheduler exact;
  for (std::uint64_t n = 4; n <= 24; ++n) {
    const Instance inst = MakeInstance({{1, 1, 2}, {2, 1, 3}, {3, 1, n}});
    auto feasible = exact.IsFeasible(inst);
    ASSERT_TRUE(feasible.ok()) << feasible.status();
    EXPECT_FALSE(*feasible) << "n = " << n;
    EXPECT_TRUE(exact.BuildSchedule(inst).status().IsInfeasible());
  }
}

TEST(ExactSchedulerTest, DensityOneChainFeasible) {
  ExactScheduler exact;
  const Instance inst = MakeInstance({{1, 1, 2}, {2, 1, 4}, {3, 1, 4}});
  auto schedule = exact.BuildSchedule(inst);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  EXPECT_TRUE(Verifier::Verify(*schedule, inst).ok());
}

// Known tight instance: {(1,2),(1,3),(1,6)} has density exactly 1 and the
// unique-ish schedule 1,2,1,3,1,2 works... check solver finds something.
TEST(ExactSchedulerTest, TightDensityOneInstance) {
  ExactScheduler exact;
  const Instance inst = MakeInstance({{1, 1, 2}, {2, 1, 3}, {3, 1, 6}});
  // Density = 1/2 + 1/3 + 1/6 = 1. Feasibility: schedule 1,2,1,2,1,3 gives
  // task 2 gaps of 2 and 4 <= 3? No — this instance is actually infeasible
  // for gap reasons? The solver decides; we only assert consistency:
  // if a schedule is returned it must verify.
  auto schedule = exact.BuildSchedule(inst);
  if (schedule.ok()) {
    EXPECT_TRUE(Verifier::Verify(*schedule, inst).ok());
  } else {
    EXPECT_TRUE(schedule.status().IsInfeasible());
  }
}

// Cross-validation: on random small single-unit instances, whenever any
// heuristic schedules the instance, the exact solver must agree it is
// feasible; whenever the exact solver proves infeasibility, no heuristic
// may produce a schedule (it can't — schedules are verified — but check).
TEST(CrossValidationTest, HeuristicsNeverBeatExactInfeasibility) {
  Rng rng(21);
  ExactScheduler exact;
  SxyScheduler sxy;
  GreedyScheduler greedy;
  int feasible_count = 0;
  int infeasible_count = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<Task> tasks;
    const std::size_t n = 2 + rng.Uniform(3);
    for (TaskId i = 0; i < n; ++i) {
      tasks.push_back({i, 1, 2 + rng.Uniform(9)});
    }
    const Instance inst = MakeInstance(std::move(tasks));
    auto feasible = exact.IsFeasible(inst);
    ASSERT_TRUE(feasible.ok());
    const bool sxy_ok = sxy.BuildSchedule(inst).ok();
    const bool greedy_ok = greedy.BuildSchedule(inst).ok();
    if (*feasible) {
      ++feasible_count;
    } else {
      ++infeasible_count;
      EXPECT_FALSE(sxy_ok) << inst.ToString();
      EXPECT_FALSE(greedy_ok) << inst.ToString();
    }
  }
  // The sweep must have exercised both outcomes.
  EXPECT_GT(feasible_count, 10);
  EXPECT_GT(infeasible_count, 10);
}

// Greedy harvests a cycle on a feasible dense instance (round-robin case,
// density exactly 1).
TEST(GreedySchedulerTest, RoundRobinDensityOne) {
  const Instance inst = MakeInstance({{1, 1, 3}, {2, 1, 3}, {3, 1, 3}});
  ASSERT_DOUBLE_EQ(inst.density(), 1.0);
  GreedyScheduler greedy;
  auto schedule = greedy.BuildSchedule(inst);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  EXPECT_TRUE(Verifier::Verify(*schedule, inst).ok());
}

// Greedy is a heuristic: there are feasible density-1 instances it misses
// (the buddy-structured {(1,2),(1,4),(1,8),(1,8)} needs offsets greedy's
// myopic policy does not discover). The composite portfolio still solves
// them via the chain schedulers.
TEST(GreedySchedulerTest, KnownMissIsCaughtByPortfolio) {
  const Instance inst = MakeInstance({{1, 1, 2}, {2, 1, 4}, {3, 1, 8},
                                      {4, 1, 8}});
  ASSERT_DOUBLE_EQ(inst.density(), 1.0);
  // Whatever greedy does, it must not return an invalid schedule.
  auto greedy_result = GreedyScheduler().BuildSchedule(inst);
  if (greedy_result.ok()) {
    EXPECT_TRUE(Verifier::Verify(*greedy_result, inst).ok());
  }
  auto composite_result = CompositeScheduler().BuildSchedule(inst);
  ASSERT_TRUE(composite_result.ok()) << composite_result.status();
  EXPECT_TRUE(Verifier::Verify(*composite_result, inst).ok());
}

TEST(GreedySchedulerTest, RejectsOverOne) {
  const Instance inst = MakeInstance({{1, 1, 2}, {2, 1, 2}, {3, 1, 2}});
  EXPECT_TRUE(GreedyScheduler().BuildSchedule(inst).status().IsInfeasible());
}

// The greedy walk stepped until its first repeated counter state, with a
// table of every state seen: the direct reference for GreedyScheduler's
// cycle search. Returns the slots served from the repeated state's first
// visit, or the status of a deadline miss or of 2^20 steps without either.
Result<std::vector<TaskId>> FirstRepeatCycle(const Instance& instance) {
  std::vector<std::pair<TaskId, std::uint64_t>> subs;  // (parent, window)
  for (const Task& t : instance.tasks()) {
    for (std::uint64_t k = 0; k < t.a; ++k) subs.emplace_back(t.id, t.b);
  }
  std::vector<std::uint64_t> c;
  for (const auto& sub : subs) c.push_back(sub.second);
  std::map<std::vector<std::uint64_t>, std::uint64_t> seen;
  std::vector<TaskId> served;
  for (std::uint64_t step = 0; step < (1ULL << 20); ++step) {
    const auto [it, inserted] = seen.emplace(c, step);
    if (!inserted) {
      return std::vector<TaskId>(
          served.begin() + static_cast<std::ptrdiff_t>(it->second),
          served.end());
    }
    std::size_t pick = 0;
    for (std::size_t j = 1; j < subs.size(); ++j) {
      if (c[j] < c[pick] ||
          (c[j] == c[pick] && subs[j].second < subs[pick].second)) {
        pick = j;
      }
    }
    served.push_back(subs[pick].first);
    for (std::size_t j = 0; j < subs.size(); ++j) {
      if (j == pick) {
        c[j] = subs[j].second;
      } else if (c[j] == 1) {
        return Status::Infeasible("Greedy: deadline miss at slot " +
                                  std::to_string(step) + " for task " +
                                  std::to_string(subs[j].first));
      } else {
        --c[j];
      }
    }
  }
  return Status::ResourceExhausted("Greedy: no cycle within 1048576 steps");
}

// On seeded instances of density at most 1, the scheduler returns the
// reference's cycle slot for slot, or its status and message.
TEST(GreedySchedulerTest, CycleMatchesFirstRepeatReference) {
  Rng rng(29);
  int cycles = 0;
  int misses = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Task> tasks;
    const std::size_t n = 1 + rng.Uniform(5);
    for (TaskId i = 0; i < n; ++i) {
      const std::uint64_t b = 2 + rng.Uniform(40);
      const std::uint64_t a =
          1 + rng.Uniform(std::max<std::uint64_t>(1, b / 4));
      tasks.push_back({i, a, b});
    }
    const Instance inst = MakeInstance(std::move(tasks));
    if (inst.density() > 1.0) continue;
    const auto want = FirstRepeatCycle(inst);
    const auto got = GreedyScheduler().BuildSchedule(inst);
    if (want.ok()) {
      ++cycles;
      ASSERT_TRUE(got.ok()) << inst.ToString() << ": " << got.status();
      EXPECT_EQ(got->slots(), *want) << inst.ToString();
    } else {
      ++misses;
      ASSERT_FALSE(got.ok()) << inst.ToString();
      EXPECT_EQ(got.status().code(), want.status().code()) << inst.ToString();
      EXPECT_EQ(got.status().message(), want.status().message())
          << inst.ToString();
    }
  }
  EXPECT_GT(cycles, 50);
  EXPECT_GT(misses, 50);
}

// The step bound, on walks whose outcome is known in closed form. With
// {(0, 1, 2), (1, 1, W)} the state after the first slot recurs W slots
// later (task 0 is served until task 1's slack reaches 1), so the first
// repeat is at step W + 1: a cycle of W slots below 2^20 steps, none at
// 2^20, and none for a window far past it. With {(0, 1, 2), (1, 1, W),
// (2, 1, W)} tasks 1 and 2 run out together at step W - 1: a miss at the
// last step, or one the bound does not reach.
TEST(GreedySchedulerTest, StepBoundMatchesFirstRepeat) {
  constexpr std::uint64_t kSteps = 1ULL << 20;
  const auto two = [](std::uint64_t w) {
    return GreedyScheduler().BuildSchedule(
        MakeInstance({{0, 1, 2}, {1, 1, w}}));
  };
  const auto cycle = two(kSteps - 2);
  ASSERT_TRUE(cycle.ok()) << cycle.status();
  EXPECT_EQ(cycle->period(), kSteps - 2);
  EXPECT_EQ(std::count(cycle->slots().begin(), cycle->slots().end(), 1), 1);
  EXPECT_TRUE(two(kSteps - 1).status().IsResourceExhausted());
  EXPECT_TRUE(two(30720000000ULL).status().IsResourceExhausted());

  const auto three = [](std::uint64_t w) {
    return GreedyScheduler().BuildSchedule(
        MakeInstance({{0, 1, 2}, {1, 1, w}, {2, 1, w}}));
  };
  const auto miss = three(kSteps);
  ASSERT_TRUE(miss.status().IsInfeasible()) << miss.status();
  EXPECT_EQ(miss.status().message(),
            "Greedy: deadline miss at slot 1048575 for task 2");
  EXPECT_TRUE(three(kSteps + 1).status().IsResourceExhausted());
}

// Tasks with a > 1 must be spread: the chain schedulers' spread encoding
// gives a small max gap.
TEST(ChainSchedulersTest, SpreadEncodingBoundsGaps) {
  const Instance inst = MakeInstance({{1, 5, 20}, {2, 3, 30}});
  SxScheduler sx;
  auto schedule = sx.BuildSchedule(inst);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  EXPECT_TRUE(Verifier::Verify(*schedule, inst).ok());
  // 5 slots per 20 => evenly spread service at most every 8 slots (the
  // specialized period), far below the naive bound of 16: every window of
  // 8 slots holds one.
  EXPECT_GE(Verifier::MinWindowCount(*schedule, 1, 8), 1u);
}

// The composite scheduler must succeed whenever any member does.
TEST(CompositeSchedulerTest, FallsThroughToExact) {
  // Density 5/6 + eps instances of three tasks defeat the chain
  // specializers sometimes; composite must still find schedules for
  // instances the exact search can crack.
  const Instance inst = MakeInstance({{1, 1, 2}, {2, 1, 3}, {3, 1, 7}});
  // Density = 1/2 + 1/3 + 1/7 = 0.976; feasible? 1,2,1,3,1,2 with 7-window
  // coverage of task 3... let the solver decide, and require consistency
  // with the exact solver's verdict.
  ExactScheduler exact;
  auto feasible = exact.IsFeasible(inst);
  ASSERT_TRUE(feasible.ok());
  CompositeScheduler composite;
  auto schedule = composite.BuildSchedule(inst);
  EXPECT_EQ(schedule.ok(), *feasible) << schedule.status();
}

TEST(CompositeSchedulerTest, ReportsAllFailures) {
  const Instance inst = MakeInstance({{1, 1, 2}, {2, 1, 3}, {3, 1, 30}});
  CompositeScheduler composite;
  auto schedule = composite.BuildSchedule(inst);
  ASSERT_FALSE(schedule.ok());
  EXPECT_TRUE(schedule.status().IsInfeasible());
  // Failure message names the members.
  EXPECT_NE(schedule.status().message().find("Sxy"), std::string::npos);
}

// Property: every schedule any scheduler returns verifies against the
// original instance (the library-wide invariant), including a > 1.
TEST(PropertyTest, AllReturnedSchedulesVerify) {
  Rng rng(31);
  SxyScheduler sxy;
  SxScheduler sx;
  SaScheduler sa;
  GreedyScheduler greedy;
  const std::vector<Scheduler*> schedulers{&sxy, &sx, &sa, &greedy};
  int produced = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Task> tasks;
    const std::size_t n = 1 + rng.Uniform(5);
    for (TaskId i = 0; i < n; ++i) {
      const std::uint64_t b = 2 + rng.Uniform(40);
      const std::uint64_t a =
          1 + rng.Uniform(std::max<std::uint64_t>(1, b / 4));
      tasks.push_back({i, a, b});
    }
    const Instance inst = MakeInstance(std::move(tasks));
    for (Scheduler* s : schedulers) {
      auto schedule = s->BuildSchedule(inst);
      if (schedule.ok()) {
        ++produced;
        ASSERT_TRUE(Verifier::Verify(*schedule, inst).ok())
            << s->name() << " on " << inst.ToString();
      } else {
        ASSERT_FALSE(schedule.status().IsInternal())
            << s->name() << " on " << inst.ToString() << ": "
            << schedule.status();
      }
    }
  }
  EXPECT_GT(produced, 50);
}

}  // namespace
}  // namespace bdisk::pinwheel
