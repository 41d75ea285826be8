/// \file exact_scheduler.h
/// \brief Complete state-space search for single-unit pinwheel instances.
///
/// A single-unit pinwheel instance {(1, b_1), ..., (1, b_n)} is feasible iff
/// the "slack game" — counters c_i start at b_i, each slot one task's
/// counter resets to b_i and all others decrement, losing when a counter
/// reaches 0 — admits an infinite play, which (finite state space) happens
/// iff a reachable state cycle exists. This scheduler performs a memoized
/// DFS for such a cycle and emits it as the schedule.
///
/// Instances with a > 1 are first split into `a` unit sub-tasks of window
/// b; the split is *lossless* (pc(a, b) holds iff the task's slots can be
/// dealt round-robin to a sub-tasks each served once per b-window), so the
/// search is complete for arbitrary instances: Infeasible means proven
/// infeasible. The search is exponential in the worst case; use the state
/// budget.

#ifndef BDISK_PINWHEEL_EXACT_SCHEDULER_H_
#define BDISK_PINWHEEL_EXACT_SCHEDULER_H_

#include <cstdint>
#include <string>

#include "pinwheel/scheduler.h"

namespace bdisk::pinwheel {

/// \brief Options for ExactScheduler.
struct ExactSchedulerOptions {
  /// Maximum number of distinct states explored before giving up.
  std::size_t max_states = 1u << 20;
};

/// \brief Complete (for single-unit instances) pinwheel feasibility search.
class ExactScheduler : public Scheduler {
 public:
  explicit ExactScheduler(ExactSchedulerOptions options = {})
      : options_(options) {}

  std::string name() const override { return "Exact"; }
  Result<Schedule> BuildSchedule(const Instance& instance) const override;

  /// \brief Feasibility test without schedule construction. Returns true /
  /// false (a definitive verdict), or ResourceExhausted if the state budget
  /// was hit.
  Result<bool> IsFeasible(const Instance& instance) const;

 private:
  ExactSchedulerOptions options_;
};

}  // namespace bdisk::pinwheel

#endif  // BDISK_PINWHEEL_EXACT_SCHEDULER_H_
