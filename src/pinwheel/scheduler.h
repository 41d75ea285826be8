/// \file scheduler.h
/// \brief Scheduler interface for pinwheel task systems.
///
/// All schedulers verify their output against the *original* instance with
/// pinwheel::Verifier before returning; a returned schedule is therefore
/// always correct, and a Status of Infeasible means only that the particular
/// scheduler could not place the instance (the instance itself may still be
/// feasible — pinwheel scheduling is conjectured NP-hard in general).

#ifndef BDISK_PINWHEEL_SCHEDULER_H_
#define BDISK_PINWHEEL_SCHEDULER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "pinwheel/schedule.h"
#include "pinwheel/task.h"

namespace bdisk::pinwheel {

/// \brief Abstract pinwheel scheduler.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Human-readable scheduler name ("Sa", "Sx", ...).
  virtual std::string name() const = 0;

  /// Builds and verifies a schedule for `instance`.
  virtual Result<Schedule> BuildSchedule(const Instance& instance) const = 0;

  /// Verifies `schedule` against `instance`; wraps violations as Internal
  /// (a scheduler that emits an invalid schedule has a bug; heuristics must
  /// detect infeasibility *before* emitting).
  static Result<Schedule> VerifyAndReturn(Schedule schedule,
                                          const Instance& instance,
                                          const std::string& scheduler_name);
};

}  // namespace bdisk::pinwheel

#endif  // BDISK_PINWHEEL_SCHEDULER_H_
