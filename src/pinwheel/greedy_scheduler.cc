#include "pinwheel/greedy_scheduler.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace bdisk::pinwheel {

namespace {

/// Simulated slots before giving up on finding a cycle.
constexpr std::uint64_t kMaxSteps = 1ULL << 20;

struct SubTask {
  TaskId parent;
  std::uint64_t window;
};

/// FNV-1a over the counter vector, used as the state-repeat key.
struct VectorHash {
  std::size_t operator()(const std::vector<std::uint64_t>& v) const {
    std::size_t h = 1469598103934665603ULL;
    for (std::uint64_t x : v) {
      h ^= x;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

}  // namespace

Result<Schedule> GreedyScheduler::BuildSchedule(const Instance& instance) const {
  if (instance.empty()) {
    return Status::InvalidArgument("Greedy: empty instance");
  }
  // Split (a, b) into a unit sub-tasks of window b. The split is lossless:
  // a schedule serves task i at least a times per b-window iff its slots
  // can be dealt round-robin to a sub-tasks each served once per b-window
  // (consecutive services t_k, t_{k+a} of the task are at most b apart,
  // else the window just after t_k would hold only a - 1 services).
  std::vector<SubTask> subs;
  for (const Task& t : instance.tasks()) {
    for (std::uint64_t k = 0; k < t.a; ++k) {
      subs.push_back(SubTask{t.id, t.b});
    }
  }

  // Necessary check: density must not exceed 1.
  if (instance.density() > 1.0 + 1e-12) {
    return Status::Infeasible("Greedy: density " +
                              std::to_string(instance.density()) +
                              " exceeds 1 for " + instance.ToString());
  }

  // Slack counters: sub-task j must be served within c[j] slots (inclusive).
  std::vector<std::uint64_t> c(subs.size());
  for (std::size_t j = 0; j < subs.size(); ++j) c[j] = subs[j].window;

  std::unordered_map<std::vector<std::uint64_t>, std::uint64_t, VectorHash>
      seen;
  std::vector<TaskId> served;  // Slot log, by parent task id.
  served.reserve(1024);

  for (std::uint64_t step = 0; step < kMaxSteps; ++step) {
    auto [it, inserted] = seen.emplace(c, step);
    if (!inserted) {
      // Cycle found: slots [it->second, step) repeat forever.
      const std::uint64_t start = it->second;
      std::vector<TaskId> cycle(served.begin() + static_cast<std::ptrdiff_t>(start),
                                served.end());
      BDISK_ASSIGN_OR_RETURN(Schedule schedule,
                             Schedule::FromCycle(std::move(cycle)));
      return VerifyAndReturn(std::move(schedule), instance, name());
    }

    // Serve the most urgent sub-task (ties: smaller window, then order).
    std::size_t pick = 0;
    for (std::size_t j = 1; j < subs.size(); ++j) {
      if (c[j] < c[pick] ||
          (c[j] == c[pick] && subs[j].window < subs[pick].window)) {
        pick = j;
      }
    }
    served.push_back(subs[pick].parent);
    for (std::size_t j = 0; j < subs.size(); ++j) {
      if (j == pick) {
        c[j] = subs[j].window;
      } else {
        if (c[j] == 1) {
          return Status::Infeasible(
              "Greedy: deadline miss at slot " + std::to_string(step) +
              " for task " + std::to_string(subs[j].parent));
        }
        --c[j];
      }
    }
  }
  return Status::ResourceExhausted("Greedy: no cycle within " +
                                   std::to_string(kMaxSteps) +
                                   " steps");
}

}  // namespace bdisk::pinwheel
