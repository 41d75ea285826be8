#include "pinwheel/chain_schedulers.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "pinwheel/chain_allocator.h"
#include "pinwheel/specialization.h"

namespace bdisk::pinwheel {

namespace {

/// Upper bound on the emitted schedule's period.
constexpr std::uint64_t kMaxPeriod = 1ULL << 24;
/// Candidate bases x that Sx/Sxy attempt, least specialized density first.
constexpr std::size_t kMaxCandidates = 64;

/// Specialization function: maps a window b to the largest admissible
/// window <= b in the scheduler's window set, or nullopt if none exists.
using SpecFn = std::function<std::optional<std::uint64_t>(std::uint64_t)>;

/// Picks the cheaper sound encoding (unit vs spread; see header) of task
/// `t` under the specialization `spec`. Returns nullopt if neither fits.
std::optional<ClassRequest> EncodeTask(const Task& t, const SpecFn& spec) {
  std::optional<ClassRequest> best;
  double best_density = 0.0;

  const std::uint64_t unit_window = t.b / t.a;  // floor; >= 1 since b >= a.
  if (std::optional<std::uint64_t> w = spec(unit_window)) {
    best = ClassRequest{t.id, *w, 1};
    best_density = 1.0 / static_cast<double>(*w);
  }
  if (std::optional<std::uint64_t> w = spec(t.b)) {
    const double d = static_cast<double>(t.a) / static_cast<double>(*w);
    if (!best.has_value() || d < best_density) {
      best = ClassRequest{t.id, *w, t.a};
      best_density = d;
    }
  }
  return best;
}

/// Encodes the whole instance; returns the requests and their total density,
/// or nullopt if some task cannot be specialized or the density exceeds 1.
std::optional<std::pair<std::vector<ClassRequest>, double>> EncodeInstance(
    const Instance& instance, const SpecFn& spec) {
  std::vector<ClassRequest> requests;
  requests.reserve(instance.size());
  double density = 0.0;
  for (const Task& t : instance.tasks()) {
    std::optional<ClassRequest> r = EncodeTask(t, spec);
    if (!r.has_value()) return std::nullopt;
    density += static_cast<double>(r->count) / static_cast<double>(r->period);
    if (density > 1.0 + 1e-12) return std::nullopt;
    requests.push_back(*r);
  }
  return std::make_pair(std::move(requests), density);
}

/// Allocates the requests and materializes + verifies the schedule. Chain
/// period sets succeed under the default policy whenever density <= 1;
/// non-chain sets (Sxy) are policy-sensitive, so every variant is tried.
Result<Schedule> Realize(const Instance& instance,
                         std::vector<ClassRequest> requests,
                         const std::string& name) {
  Status last = Status::Infeasible(name + ": allocation failed");
  for (const AllocationPolicy& policy : AllocationPolicy::AllPolicies()) {
    auto assignments = ChainAllocator::Allocate(requests, policy);
    if (!assignments.ok()) {
      last = assignments.status();
      continue;
    }
    auto schedule = ChainAllocator::ToSchedule(*assignments, kMaxPeriod);
    if (!schedule.ok()) {
      last = schedule.status();
      continue;
    }
    // Verification failure here is a library bug for chain schedulers (the
    // encodings are sound by construction), hence Internal via the base
    // hook.
    return Scheduler::VerifyAndReturn(std::move(*schedule), instance, name);
  }
  return last;
}

/// Shared driver for Sx and Sxy: enumerate candidate bases, order by
/// encoded density, attempt allocation until one succeeds.
Result<Schedule> ScheduleWithBases(
    const Instance& instance, const std::vector<std::uint64_t>& bases,
    const std::function<SpecFn(std::uint64_t)>& spec_for_base,
    const std::string& name) {
  if (instance.empty()) {
    return Status::InvalidArgument(name + ": empty instance");
  }
  struct Candidate {
    std::uint64_t base;
    double density;
    std::vector<ClassRequest> requests;
  };
  std::vector<Candidate> candidates;
  for (std::uint64_t x : bases) {
    auto encoded = EncodeInstance(instance, spec_for_base(x));
    if (!encoded.has_value()) continue;
    candidates.push_back(Candidate{x, encoded->second,
                                   std::move(encoded->first)});
  }
  if (candidates.empty()) {
    return Status::Infeasible(name + ": no base specializes " +
                              instance.ToString() + " within density 1");
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.density < b.density;
                   });
  if (candidates.size() > kMaxCandidates) candidates.resize(kMaxCandidates);
  Status last = Status::Infeasible(name + ": all candidate bases failed");
  for (Candidate& c : candidates) {
    Result<Schedule> r = Realize(instance, std::move(c.requests), name);
    if (r.ok()) return r;
    last = r.status();
  }
  return Status::Infeasible(name + ": could not schedule " +
                            instance.ToString() + " (last: " + last.message() +
                            ")");
}

}  // namespace

Result<Schedule> SaScheduler::BuildSchedule(const Instance& instance) const {
  const auto spec = [](std::uint64_t b) -> std::optional<std::uint64_t> {
    if (b == 0) return std::nullopt;
    return LargestPowerOfTwoAtMost(b);
  };
  const auto spec_for_base = [&spec](std::uint64_t) { return SpecFn(spec); };
  return ScheduleWithBases(instance, {1}, spec_for_base, name());
}

Result<Schedule> SxScheduler::BuildSchedule(const Instance& instance) const {
  std::vector<std::uint64_t> windows;
  for (const Task& t : instance.tasks()) {
    windows.push_back(t.b);
    windows.push_back(t.b / t.a);
  }
  const auto spec_for_base = [](std::uint64_t x) {
    return SpecFn([x](std::uint64_t b) { return LargestChainValueAtMost(x, b); });
  };
  return ScheduleWithBases(instance, ChainBaseCandidates(windows),
                           spec_for_base, name());
}

Result<Schedule> SxyScheduler::BuildSchedule(const Instance& instance) const {
  std::vector<std::uint64_t> windows;
  for (const Task& t : instance.tasks()) {
    windows.push_back(t.b);
    windows.push_back(t.b / t.a);
  }
  const auto spec_for_base = [](std::uint64_t x) {
    return SpecFn([x](std::uint64_t b) { return LargestSmoothValueAtMost(x, b); });
  };
  return ScheduleWithBases(instance, SmoothBaseCandidates(windows),
                           spec_for_base, name());
}

}  // namespace bdisk::pinwheel
