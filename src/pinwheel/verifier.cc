#include "pinwheel/verifier.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/check.h"

namespace bdisk::pinwheel {

namespace {

/// Minimum count over all windows of `window` slots of a task at the
/// ascending positions `occ` of a cycle of `period` slots, and the
/// smallest start reaching it.
std::uint64_t SweepMinWindowCount(const std::vector<std::uint64_t>& occ,
                                  std::uint64_t period, std::uint64_t window,
                                  std::uint64_t* worst_start) {
  BDISK_CHECK(window > 0 && period > 0);
  const std::uint64_t c = occ.size();
  BDISK_DCHECK(std::is_sorted(occ.begin(), occ.end()) &&
               (c == 0 || occ.back() < period));
  // Every window holds floor(window / period) whole periods; the rest is a
  // window of r < period slots.
  const std::uint64_t base = window / period * c;
  const std::uint64_t r = window % period;
  if (worst_start != nullptr) *worst_start = 0;
  if (r == 0 || c == 0) return base;

  // The count in [s, s + r) falls only at a start s = p + 1 where an
  // occurrence p leaves the window, so the smallest start reaching the
  // minimum is 0 or one of those. The window at p + 1 holds the occurrences
  // after p up to the first one at or past p + 1 + r, counted on the list
  // followed by its copy one period on; that end only moves forward.
  const auto at = [&](std::uint64_t k) {
    return k < c ? occ[k] : occ[k - c] + period;
  };
  std::uint64_t end = static_cast<std::uint64_t>(
      std::lower_bound(occ.begin(), occ.end(), r) - occ.begin());
  std::uint64_t best = end;
  std::uint64_t best_start = 0;
  for (std::uint64_t i = 0; i < c && occ[i] + 1 < period; ++i) {
    while (at(end) < occ[i] + 1 + r) ++end;
    if (end - i - 1 < best) {
      best = end - i - 1;
      best_start = occ[i] + 1;
    }
  }
  if (worst_start != nullptr) *worst_start = best_start;
  return base + best;
}

}  // namespace

std::string ConditionCheck::ToString() const {
  std::ostringstream oss;
  oss << "pc(" << task << ", " << a << ", " << b << "): min window count "
      << min_count << " at start " << worst_start << " => "
      << (satisfied ? "satisfied" : "VIOLATED");
  return oss.str();
}

std::uint64_t Verifier::MinWindowCount(const Schedule& schedule, TaskId id,
                                       std::uint64_t window,
                                       std::uint64_t* worst_start) {
  std::vector<std::uint64_t> occurrences;
  const std::vector<TaskId>& cycle = schedule.slots();
  for (std::uint64_t t = 0; t < cycle.size(); ++t) {
    if (cycle[t] == id) occurrences.push_back(t);
  }
  return SweepMinWindowCount(occurrences, schedule.period(), window,
                             worst_start);
}

ConditionCheck Verifier::CheckCondition(
    const std::vector<std::uint64_t>& occurrences, std::uint64_t period,
    TaskId id, std::uint64_t a, std::uint64_t b) {
  ConditionCheck check;
  check.task = id;
  check.a = a;
  check.b = b;
  check.min_count =
      SweepMinWindowCount(occurrences, period, b, &check.worst_start);
  check.satisfied = check.min_count >= a;
  return check;
}

Status Verifier::Verify(const Schedule& schedule, const Instance& instance) {
  for (const ConditionCheck& check : CheckAll(schedule, instance)) {
    if (!check.satisfied) {
      return Status::Infeasible("Schedule violates " + check.ToString());
    }
  }
  return Status::OK();
}

std::vector<ConditionCheck> Verifier::CheckAll(const Schedule& schedule,
                                               const Instance& instance) {
  // Every task's occurrences, gathered in one pass over the cycle. Task ids
  // are sparse (kIdle is 2^32 - 1), so each slot finds its task through a
  // map, not a table indexed by id.
  std::unordered_map<TaskId, std::size_t> task_index;
  task_index.reserve(instance.size());
  for (std::size_t k = 0; k < instance.size(); ++k) {
    task_index.emplace(instance.tasks()[k].id, k);
  }
  std::vector<std::vector<std::uint64_t>> occurrences(instance.size());
  const std::vector<TaskId>& cycle = schedule.slots();
  for (std::uint64_t t = 0; t < cycle.size(); ++t) {
    const auto it = task_index.find(cycle[t]);
    if (it != task_index.end()) occurrences[it->second].push_back(t);
  }
  std::vector<ConditionCheck> out;
  out.reserve(instance.size());
  for (std::size_t k = 0; k < instance.size(); ++k) {
    const Task& t = instance.tasks()[k];
    out.push_back(
        CheckCondition(occurrences[k], schedule.period(), t.id, t.a, t.b));
  }
  return out;
}

}  // namespace bdisk::pinwheel
