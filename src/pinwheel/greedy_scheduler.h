/// \file greedy_scheduler.h
/// \brief Most-urgent-first heuristic pinwheel scheduler.
///
/// Simulates the deterministic "serve the task with the least remaining
/// slack" policy and harvests the cycle the simulation necessarily enters
/// (the state space is finite and the policy is deterministic), found with
/// Brent's algorithm in two counter vectors, O(sum of a) memory, within
/// 2^20 simulated slots. Not guaranteed for any density bound, but cheap,
/// and it succeeds on many instances that defeat the specialization-based
/// schedulers — the density ablation bench quantifies this. Tasks with
/// a > 1 are first split into `a` unit sub-tasks of window b, which is
/// lossless (pc(a, b) holds iff the task's slots can be dealt round-robin
/// to a sub-tasks each served once per b-window).

#ifndef BDISK_PINWHEEL_GREEDY_SCHEDULER_H_
#define BDISK_PINWHEEL_GREEDY_SCHEDULER_H_

#include <cstdint>
#include <string>

#include "pinwheel/scheduler.h"

namespace bdisk::pinwheel {

/// \brief Serve-most-urgent-first scheduler (see file comment).
class GreedyScheduler : public Scheduler {
 public:
  std::string name() const override { return "Greedy"; }
  double guaranteed_density() const override { return 0.0; }
  Result<Schedule> BuildSchedule(const Instance& instance) const override;
};

}  // namespace bdisk::pinwheel

#endif  // BDISK_PINWHEEL_GREEDY_SCHEDULER_H_
