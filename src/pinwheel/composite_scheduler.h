/// \file composite_scheduler.h
/// \brief Portfolio scheduler: tries a sequence of schedulers and returns
/// the first verified schedule.
///
/// The default portfolio orders the specialization-based schedulers first
/// (their residue-class schedules spread each task's slots evenly, which
/// minimizes the broadcast-disk inter-block gap Delta), then the greedy
/// heuristic, then — for small instances — the complete search.

#ifndef BDISK_PINWHEEL_COMPOSITE_SCHEDULER_H_
#define BDISK_PINWHEEL_COMPOSITE_SCHEDULER_H_

#include <memory>
#include <string>
#include <vector>

#include "pinwheel/scheduler.h"

namespace bdisk::pinwheel {

/// \brief Tries Sxy, Sx, Sa, Greedy, then (small instances) Exact.
class CompositeScheduler : public Scheduler {
 public:
  CompositeScheduler();

  std::string name() const override { return "Composite"; }
  double guaranteed_density() const override { return 0.5; }
  Result<Schedule> BuildSchedule(const Instance& instance) const override;

 private:
  std::vector<std::unique_ptr<Scheduler>> schedulers_;  // Exact last.
};

}  // namespace bdisk::pinwheel

#endif  // BDISK_PINWHEEL_COMPOSITE_SCHEDULER_H_
