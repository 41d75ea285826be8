#include "pinwheel/greedy_scheduler.h"

#include <limits>
#include <vector>

#include "common/check.h"

namespace bdisk::pinwheel {

namespace {

/// Simulated slots before giving up on finding a cycle.
constexpr std::uint64_t kMaxSteps = 1ULL << 20;

/// Step() result when a sub-task's deadline passes.
constexpr std::size_t kMissed = std::numeric_limits<std::size_t>::max();

struct SubTask {
  TaskId parent;
  std::uint64_t window;
};

/// One slot of the policy on the slack counters `c` (sub-task j must be
/// served within c[j] slots, inclusive): serves the most urgent sub-task
/// (ties: smaller window, then order) and counts every other one down.
/// Returns the served sub-task, or kMissed with `*missed` set to the first
/// other sub-task whose slack runs out, leaving `c` unchanged.
std::size_t Step(const std::vector<SubTask>& subs,
                 std::vector<std::uint64_t>* counters, std::size_t* missed) {
  std::uint64_t* c = counters->data();
  const std::size_t n = counters->size();
  std::size_t pick = 0;
  std::uint64_t least = c[0];
  std::uint64_t least_window = subs[0].window;
  std::size_t ones = c[0] == 1;
  for (std::size_t j = 1; j < n; ++j) {
    ones += c[j] == 1;
    if (c[j] < least || (c[j] == least && subs[j].window < least_window)) {
      pick = j;
      least = c[j];
      least_window = subs[j].window;
    }
  }
  // Counters never fall below 1 and the pick holds the least, so a second
  // counter at 1 is a sub-task the slot cannot serve.
  if (ones > 1) {
    std::size_t j = 0;
    while (c[j] != 1 || j == pick) ++j;
    *missed = j;
    return kMissed;
  }
  for (std::size_t j = 0; j < n; ++j) --c[j];
  c[pick] = least_window;
  return pick;
}

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

  // The counter states c_0, c_1 = Step(c_0), ... are a deterministic walk
  // over a finite space, so the walk either misses a deadline or enters a
  // cycle: c_{mu + lambda} = c_mu with mu and lambda least, and the slots
  // served from c_mu repeat forever. Brent's algorithm finds lambda, then
  // mu, holding two counter vectors. The result is that of stepping until
  // the first repeat or miss for at most kMaxSteps steps: a miss at step
  // s < kMaxSteps is Infeasible (every state before a miss is distinct), a
  // cycle with mu + lambda < kMaxSteps is the schedule, and anything else
  // is ResourceExhausted.
  std::vector<std::uint64_t> start(subs.size());
  for (std::size_t j = 0; j < subs.size(); ++j) start[j] = subs[j].window;
  const auto exhausted = [] {
    return Status::ResourceExhausted("Greedy: no cycle within " +
                                     std::to_string(kMaxSteps) + " steps");
  };

  // Lambda: the tortoise waits at state 2^k - 1 while the hare, at step
  // `hare_step`, tries the next 2^k states. A cycle with mu + lambda <
  // kMaxSteps is met by the round of 2^k >= kMaxSteps at the latest.
  std::vector<std::uint64_t> tortoise = start;
  std::vector<std::uint64_t> hare = start;
  std::uint64_t hare_step = 0;
  std::uint64_t power = 1;
  std::uint64_t lambda = 0;
  for (;;) {
    std::size_t missed = 0;
    if (Step(subs, &hare, &missed) == kMissed) {
      if (hare_step >= kMaxSteps) return exhausted();
      return Status::Infeasible("Greedy: deadline miss at slot " +
                                std::to_string(hare_step) + " for task " +
                                std::to_string(subs[missed].parent));
    }
    ++hare_step;
    ++lambda;
    if (hare == tortoise) break;
    if (lambda == power) {
      if (power >= kMaxSteps) return exhausted();
      tortoise = hare;
      power *= 2;
      lambda = 0;
    }
  }

  // Mu: two walks lambda apart from c_0 first meet at c_mu. Every state
  // up to mu + lambda was reached above, so no step here misses.
  std::size_t unused = 0;
  tortoise = start;
  hare = start;
  for (std::uint64_t i = 0; i < lambda; ++i) Step(subs, &hare, &unused);
  std::uint64_t mu = 0;
  while (tortoise != hare) {
    Step(subs, &tortoise, &unused);
    Step(subs, &hare, &unused);
    ++mu;
  }
  if (mu + lambda >= kMaxSteps) return exhausted();

  // The cycle: the slots served from c_mu, lambda of them.
  std::vector<TaskId> cycle;
  cycle.reserve(lambda);
  for (std::uint64_t i = 0; i < lambda; ++i) {
    cycle.push_back(subs[Step(subs, &tortoise, &unused)].parent);
  }
  BDISK_ASSIGN_OR_RETURN(Schedule schedule,
                         Schedule::FromCycle(std::move(cycle)));
  return VerifyAndReturn(std::move(schedule), instance, name());
}

}  // namespace bdisk::pinwheel
