// Schedule-quality properties: beyond mere feasibility, the broadcast-disk
// layer depends on the chain schedulers producing *evenly spread* slots
// (small inter-service gaps drive Lemma 2's Delta). These tests pin that
// quality contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "common/random.h"
#include "pinwheel/chain_schedulers.h"
#include "pinwheel/composite_scheduler.h"
#include "pinwheel/verifier.h"

namespace bdisk::pinwheel {
namespace {

// For residue-class schedulers, each task's slots form unions of
// arithmetic progressions; the max gap never exceeds the task's window
// (service at least once per window is the defining property, and the
// spread encoding places the a slots evenly).
TEST(ScheduleQualityTest, ChainSchedulerGapsWithinWindows) {
  Rng rng(424242);
  SxScheduler sx;
  int produced = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Task> tasks;
    const std::size_t n = 1 + rng.Uniform(4);
    double density = 0.0;
    for (TaskId i = 0; i < n; ++i) {
      const std::uint64_t b = 4 + rng.Uniform(40);
      const std::uint64_t a = 1 + rng.Uniform(3);
      if (a > b) continue;
      const double d = static_cast<double>(a) / static_cast<double>(b);
      if (density + d > 0.6) continue;
      density += d;
      tasks.push_back({i, a, b});
    }
    if (tasks.empty()) continue;
    auto inst = Instance::Create(tasks);
    ASSERT_TRUE(inst.ok());
    auto schedule = sx.BuildSchedule(*inst);
    if (!schedule.ok()) continue;
    ++produced;
    for (const Task& t : tasks) {
      // One service at least every floor(b/a) or b slots depending on the
      // encoding; b is the sound upper bound on the gap in both cases, so
      // every window of b slots holds one.
      EXPECT_GE(Verifier::MinWindowCount(*schedule, t.id, t.b), 1u)
          << t.ToString();
    }
  }
  EXPECT_GT(produced, 40);
}

// The spread encoding must beat the trivial bound for multi-slot tasks:
// a task (a, b) scheduled via a residue classes of period <= b has gaps
// around b/a, not b.
TEST(ScheduleQualityTest, MultiSlotTasksAreInterleaved) {
  SxScheduler sx;
  auto inst = Instance::Create({{1, 4, 16}, {2, 2, 32}});
  ASSERT_TRUE(inst.ok());
  auto schedule = sx.BuildSchedule(*inst);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  // Spread: ~every 4 slots, not one burst, so every window of 8 slots
  // holds one.
  EXPECT_GE(Verifier::MinWindowCount(*schedule, 1, 16u / 4 * 2), 1u);
}

// Utilization accounting: the schedule's busy fraction matches the sum of
// the realized encodings' densities (no phantom slots).
TEST(ScheduleQualityTest, UtilizationMatchesAllocatedDensity) {
  SaScheduler sa;
  auto inst = Instance::Create({{1, 1, 4}, {2, 1, 8}, {3, 1, 8}});
  ASSERT_TRUE(inst.ok());
  auto schedule = sa.BuildSchedule(*inst);
  ASSERT_TRUE(schedule.ok());
  // Power-of-two windows are preserved exactly: 1/4 + 1/8 + 1/8 = 0.5.
  const auto& slots = schedule->slots();
  EXPECT_EQ(2 * std::count(slots.begin(), slots.end(), Schedule::kIdle),
            static_cast<std::ptrdiff_t>(schedule->period()));
}

// The composite scheduler must prefer spread-friendly members: for the
// broadcast workloads it serves, the emitted schedule's per-task gap stays
// within the original window even when the greedy fallback would also
// succeed.
TEST(ScheduleQualityTest, CompositeKeepsGapContract) {
  CompositeScheduler composite;
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Task> tasks;
    const std::size_t n = 2 + rng.Uniform(3);
    double density = 0.0;
    for (TaskId i = 0; i < n; ++i) {
      const std::uint64_t b = 6 + rng.Uniform(30);
      const double d = 1.0 / static_cast<double>(b);
      if (density + d > 0.8) break;
      density += d;
      tasks.push_back({i, 1, b});
    }
    if (tasks.size() < 2) continue;
    auto inst = Instance::Create(tasks);
    ASSERT_TRUE(inst.ok());
    auto schedule = composite.BuildSchedule(*inst);
    if (!schedule.ok()) continue;
    for (const Task& t : tasks) {
      EXPECT_GE(Verifier::MinWindowCount(*schedule, t.id, t.b), 1u)
          << t.ToString();
    }
  }
}

}  // namespace
}  // namespace bdisk::pinwheel
