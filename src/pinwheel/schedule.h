/// \file schedule.h
/// \brief Cyclic schedules for pinwheel task systems.
///
/// A schedule is an infinite allocation of unit slots to tasks; we represent
/// the periodic case: a finite cycle repeated forever. Slot values are task
/// ids, with Schedule::kIdle marking an unallocated slot (the paper's "*").

#ifndef BDISK_PINWHEEL_SCHEDULE_H_
#define BDISK_PINWHEEL_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "pinwheel/task.h"

namespace bdisk::pinwheel {

/// \brief A periodic schedule: slot t is allocated to slots()[t mod period].
class Schedule {
 public:
  /// Marker for an unallocated slot.
  static constexpr TaskId kIdle = 0xFFFFFFFFu;

  Schedule() = default;

  /// Builds a schedule from one period of slot assignments. Fails on an
  /// empty cycle.
  static Result<Schedule> FromCycle(std::vector<TaskId> cycle);

  /// The cycle length (period).
  std::uint64_t period() const { return cycle_.size(); }

  /// One period of slot assignments.
  const std::vector<TaskId>& slots() const { return cycle_; }

  /// The task occupying absolute slot `t` (kIdle if unallocated).
  TaskId At(std::uint64_t t) const { return cycle_[t % cycle_.size()]; }

  /// "1, 2, 1, *, 2" rendering of one period, with '*' for idle slots.
  std::string ToString() const;

 private:
  explicit Schedule(std::vector<TaskId> cycle) : cycle_(std::move(cycle)) {}

  std::vector<TaskId> cycle_;
};

}  // namespace bdisk::pinwheel

#endif  // BDISK_PINWHEEL_SCHEDULE_H_
