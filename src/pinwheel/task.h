/// \file task.h
/// \brief The pinwheel task model (paper, Section 3.1).
///
/// A pinwheel task (i, a, b) needs the shared resource (the broadcast
/// channel) for at least `a` out of every `b` consecutive unit time slots.
/// A pinwheel instance is a set of such tasks sharing one resource under the
/// Integral Boundary Constraint: each slot is allocated to exactly one task
/// or left idle.

#ifndef BDISK_PINWHEEL_TASK_H_
#define BDISK_PINWHEEL_TASK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace bdisk::pinwheel {

/// Identifier of a pinwheel task. Dense small integers; the schedule's idle
/// slot is represented separately (see Schedule::kIdle).
using TaskId = std::uint32_t;

/// \brief One pinwheel task (i, a, b): at least `a` slots in every window of
/// `b` consecutive slots.
struct Task {
  TaskId id = 0;
  /// Computation requirement `a` (slots needed per window); a >= 1.
  std::uint64_t a = 1;
  /// Window size `b` (consecutive slots); b >= a.
  std::uint64_t b = 1;

  /// Task density a / b.
  double density() const {
    return static_cast<double>(a) / static_cast<double>(b);
  }

  bool operator==(const Task&) const = default;

  /// "(i, a, b)" in the paper's tuple notation.
  std::string ToString() const;
};

/// \brief A pinwheel task system: a set of tasks sharing a single resource.
///
/// Task ids must be distinct ("nice" form, Definition 1 of the paper): one
/// pinwheel condition per task. Conjunctions of several conditions on the
/// same task are handled in the algebra module, which lowers them to nice
/// instances before scheduling.
class Instance {
 public:
  Instance() = default;

  /// Validates and builds an instance. Fails if any task has a == 0,
  /// b == 0, a > b, or a duplicated id.
  static Result<Instance> Create(std::vector<Task> tasks);

  /// The tasks, in the order supplied.
  const std::vector<Task>& tasks() const { return tasks_; }

  /// Number of tasks.
  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }

  /// Sum of task densities. A density above 1 is sufficient for
  /// infeasibility; no finite density threshold below 1 is sufficient for
  /// feasibility in general (Example 1 of the paper).
  double density() const;

  /// "{(1,1,2), (2,1,3)}" in the paper's notation.
  std::string ToString() const;

 private:
  explicit Instance(std::vector<Task> tasks) : tasks_(std::move(tasks)) {}

  std::vector<Task> tasks_;
};

}  // namespace bdisk::pinwheel

#endif  // BDISK_PINWHEEL_TASK_H_
