// Fuzz-style cross-validation of the verifier's windowed counting against
// a naive brute-force reference, over random schedules and window sizes
// (including windows far beyond the period), and of the one-pass instance
// checks against per-condition ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "pinwheel/schedule.h"
#include "pinwheel/verifier.h"

namespace bdisk::pinwheel {
namespace {

// Reference implementation: literally materialize the repeated schedule
// and slide the window. `first_worst`, if non-null, receives the smallest
// start reaching the minimum.
std::uint64_t BruteMinWindowCount(const Schedule& s, TaskId id,
                                  std::uint64_t window,
                                  std::uint64_t* first_worst = nullptr) {
  const std::uint64_t period = s.period();
  std::uint64_t best = UINT64_MAX;
  for (std::uint64_t start = 0; start < period; ++start) {
    std::uint64_t count = 0;
    for (std::uint64_t k = 0; k < window; ++k) {
      if (s.At(start + k) == id) ++count;
    }
    if (count < best) {
      best = count;
      if (first_worst != nullptr) *first_worst = start;
    }
  }
  return best;
}

TEST(VerifierFuzzTest, MatchesBruteForceOnRandomSchedules) {
  Rng rng(314159);
  for (int trial = 0; trial < 120; ++trial) {
    const std::uint64_t period = 1 + rng.Uniform(24);
    const std::uint32_t n_tasks = 1 + static_cast<std::uint32_t>(rng.Uniform(4));
    std::vector<TaskId> cycle(period);
    for (auto& slot : cycle) {
      const std::uint64_t pick = rng.Uniform(n_tasks + 1);
      slot = pick == n_tasks ? Schedule::kIdle
                             : static_cast<TaskId>(pick);
    }
    auto schedule = Schedule::FromCycle(cycle);
    ASSERT_TRUE(schedule.ok());
    std::vector<TaskId> ids{Schedule::kIdle};
    for (TaskId id = 0; id < n_tasks; ++id) ids.push_back(id);
    for (TaskId id : ids) {
      for (std::uint64_t window :
           {std::uint64_t{1}, std::uint64_t{2}, period - 1, period,
            period + 1, 2 * period, 2 * period + 3, 3 * period - 1,
            5 * period + 1}) {
        if (window == 0) continue;
        std::uint64_t worst = UINT64_MAX;
        const std::uint64_t fast =
            Verifier::MinWindowCount(*schedule, id, window, &worst);
        std::uint64_t first_worst = UINT64_MAX;
        const std::uint64_t brute =
            BruteMinWindowCount(*schedule, id, window, &first_worst);
        ASSERT_EQ(fast, brute)
            << "trial " << trial << " period " << period << " task " << id
            << " window " << window << " schedule " << schedule->ToString();
        // The reported worst start is the smallest start reaching the
        // minimum: Infeasible messages print it.
        ASSERT_EQ(worst, first_worst)
            << "trial " << trial << " period " << period << " task " << id
            << " window " << window << " schedule " << schedule->ToString();
      }
    }
  }
}

TEST(VerifierFuzzTest, MaxGapConsistentWithWindowCounts) {
  // pc(1, g) holds iff g >= the largest cyclic gap between task-1 slots:
  // cross-check on random schedules.
  Rng rng(2718);
  for (int trial = 0; trial < 80; ++trial) {
    const std::uint64_t period = 2 + rng.Uniform(20);
    std::vector<TaskId> cycle(period, Schedule::kIdle);
    // Ensure task 1 appears at least once.
    cycle[rng.Uniform(period)] = 1;
    for (auto& slot : cycle) {
      if (slot == Schedule::kIdle && rng.Bernoulli(0.4)) slot = 1;
    }
    auto schedule = Schedule::FromCycle(cycle);
    ASSERT_TRUE(schedule.ok());
    std::uint64_t gap = 0;
    for (std::uint64_t t = 0; t < period; ++t) {
      if (cycle[t] != 1) continue;
      std::uint64_t next = 1;
      while (cycle[(t + next) % period] != 1) ++next;
      gap = std::max(gap, next);
    }
    EXPECT_GE(Verifier::MinWindowCount(*schedule, 1, gap), 1u);
    if (gap > 1) {
      EXPECT_EQ(Verifier::MinWindowCount(*schedule, 1, gap - 1), 0u);
    }
  }
}

// Verify and CheckAll gather every task's occurrences in one pass over the
// cycle; they must agree with one CheckCondition per task on sparse ids
// (kIdle - 1 included), on a task the cycle never holds, and on windows far
// beyond the period.
TEST(VerifierFuzzTest, CheckAllMatchesPerConditionChecksOnSparseIds) {
  constexpr TaskId kTop = Schedule::kIdle - 1;
  const std::vector<TaskId> present{7, 1000, kTop};
  constexpr TaskId kAbsent = 42;
  Rng rng(161803);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t period = 1 + rng.Uniform(30);
    std::vector<TaskId> cycle(period);
    for (auto& slot : cycle) {
      const std::uint64_t pick = rng.Uniform(present.size() + 1);
      slot = pick == present.size() ? Schedule::kIdle : present[pick];
    }
    auto schedule = Schedule::FromCycle(cycle);
    ASSERT_TRUE(schedule.ok());
    std::vector<Task> tasks;
    for (TaskId id : {TaskId{1000}, kAbsent, kTop, TaskId{7}}) {
      const std::uint64_t b =
          1 + rng.Uniform(trial % 2 == 0 ? 2 * period : 1000 * period);
      tasks.push_back({id, 1 + rng.Uniform(b), b});
    }
    auto instance = Instance::Create(tasks);
    ASSERT_TRUE(instance.ok()) << instance.status();

    const std::vector<ConditionCheck> all =
        Verifier::CheckAll(*schedule, *instance);
    ASSERT_EQ(all.size(), tasks.size());
    std::string first_violation;
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      const Task& t = tasks[k];
      std::vector<std::uint64_t> occurrences;
      for (std::uint64_t s = 0; s < period; ++s) {
        if (cycle[s] == t.id) occurrences.push_back(s);
      }
      const ConditionCheck one =
          Verifier::CheckCondition(occurrences, period, t.id, t.a, t.b);
      EXPECT_EQ(all[k].ToString(), one.ToString())
          << "trial " << trial << " schedule " << schedule->ToString();
      if (t.id == kAbsent) {
        EXPECT_EQ(one.min_count, 0u);
        EXPECT_EQ(one.worst_start, 0u);
        EXPECT_FALSE(one.satisfied);
      }
      if (!one.satisfied && first_violation.empty()) {
        first_violation = "Schedule violates " + one.ToString();
      }
    }
    // The absent task always fails, so Verify names the first violation.
    const Status st = Verifier::Verify(*schedule, *instance);
    ASSERT_TRUE(st.IsInfeasible());
    EXPECT_EQ(st.message(), first_violation);
  }
}

}  // namespace
}  // namespace bdisk::pinwheel
