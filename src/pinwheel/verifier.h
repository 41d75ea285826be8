/// \file verifier.h
/// \brief Exhaustive verification of pinwheel conditions over a cyclic
/// schedule.
///
/// Every scheduler in this library is allowed to be heuristic; the verifier
/// is the ground truth. A condition pc(i, a, b) holds for a periodic
/// schedule iff *every* window of b consecutive slots of the infinite
/// repetition contains at least a slots of task i; by periodicity it
/// suffices to check the `period` distinct window start offsets, which the
/// verifier does exactly (no sampling).
///
/// It does so without visiting every offset. A window of b slots holds
/// floor(b / period) whole periods plus r = b mod period slots, and the
/// count in the r-slot part falls only at the starts where one of the
/// task's occurrences leaves it. One condition therefore costs
/// O(occurrences of its task) once those are known, and Verify and CheckAll
/// gather every task's occurrences in one pass over the cycle, so checking
/// an instance costs O(period + tasks).

#ifndef BDISK_PINWHEEL_VERIFIER_H_
#define BDISK_PINWHEEL_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "pinwheel/schedule.h"
#include "pinwheel/task.h"

namespace bdisk::pinwheel {

/// \brief Outcome of checking a single pinwheel condition.
struct ConditionCheck {
  TaskId task = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  /// Minimum occurrence count over all windows of length b.
  std::uint64_t min_count = 0;
  /// The smallest window start offset in [0, period) achieving min_count.
  std::uint64_t worst_start = 0;
  /// True iff min_count >= a.
  bool satisfied = false;

  std::string ToString() const;
};

/// \brief Schedule verifier (stateless; all methods static).
class Verifier {
 public:
  /// Minimum number of occurrences of `id` over all windows of `window`
  /// consecutive slots of the infinite repetition of `schedule`.
  /// `worst_start`, if non-null, receives the smallest start offset in
  /// [0, period) achieving the minimum. `window` must be positive. One
  /// pass over the cycle, then the sweep that CheckCondition runs.
  static std::uint64_t MinWindowCount(const Schedule& schedule, TaskId id,
                                      std::uint64_t window,
                                      std::uint64_t* worst_start = nullptr);

  /// Checks pc(id, a, b) for a task at the ascending positions
  /// `occurrences` (each below `period`) of a cycle of `period` slots
  /// repeated forever. O(occurrences.size()).
  static ConditionCheck CheckCondition(
      const std::vector<std::uint64_t>& occurrences, std::uint64_t period,
      TaskId id, std::uint64_t a, std::uint64_t b);

  /// Checks every task of `instance` against the schedule. OK iff all
  /// conditions hold; otherwise Infeasible naming the first violated
  /// condition.
  static Status Verify(const Schedule& schedule, const Instance& instance);

  /// Like Verify but returns all per-condition results (for reporting).
  static std::vector<ConditionCheck> CheckAll(const Schedule& schedule,
                                              const Instance& instance);
};

}  // namespace bdisk::pinwheel

#endif  // BDISK_PINWHEEL_VERIFIER_H_
