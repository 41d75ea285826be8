#include "pinwheel/chain_schedulers.h"

#include <algorithm>
#include <cmath>
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

/// Specialization: rounds a window b down to the largest admissible
/// window <= b in the window set of base x, or nullopt if none exists
/// (LargestChainValueAtMost or LargestSmoothValueAtMost).
using SpecFn = std::optional<std::uint64_t> (*)(std::uint64_t x,
                                                std::uint64_t b);

/// Picks the cheaper sound encoding (unit vs spread; see header) of task
/// `t` under base `x`'s specialization. Returns nullopt if neither fits.
std::optional<ClassRequest> EncodeTask(const Task& t, SpecFn spec,
                                       std::uint64_t x) {
  std::optional<ClassRequest> best;
  double best_density = 0.0;

  const std::uint64_t unit_window = t.b / t.a;  // floor; >= 1 since b >= a.
  if (std::optional<std::uint64_t> w = spec(x, unit_window)) {
    best = ClassRequest{t.id, *w, 1};
    best_density = 1.0 / static_cast<double>(*w);
  }
  if (std::optional<std::uint64_t> w = spec(x, t.b)) {
    const double d = static_cast<double>(t.a) / static_cast<double>(*w);
    if (!best.has_value() || d < best_density) {
      best = ClassRequest{t.id, *w, t.a};
      best_density = d;
    }
  }
  return best;
}

/// Encodes the whole instance at base `x`; returns the total density
/// (summed in task order), or nullopt if some task cannot be specialized
/// or the density exceeds 1. Appends the requests to `requests` unless it
/// is null, so a base can be ranked without building them.
std::optional<double> EncodeInstance(const Instance& instance, SpecFn spec,
                                     std::uint64_t x,
                                     std::vector<ClassRequest>* requests) {
  double density = 0.0;
  for (const Task& t : instance.tasks()) {
    std::optional<ClassRequest> r = EncodeTask(t, spec, x);
    if (!r.has_value()) return std::nullopt;
    density += static_cast<double>(r->count) / static_cast<double>(r->period);
    if (density > 1.0 + 1e-12) return std::nullopt;
    if (requests != nullptr) requests->push_back(*r);
  }
  return density;
}

/// The distinct windows the encodings specialize: every task's b and
/// floor(b / a), ascending.
std::vector<std::uint64_t> DistinctWindows(const Instance& instance) {
  std::vector<std::uint64_t> windows;
  windows.reserve(2 * instance.size());
  for (const Task& t : instance.tasks()) {
    windows.push_back(t.b);
    windows.push_back(t.b / t.a);
  }
  std::sort(windows.begin(), windows.end());
  windows.erase(std::unique(windows.begin(), windows.end()), windows.end());
  return windows;
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

/// Shared driver for Sa, Sx and Sxy: rank the candidate bases by encoded
/// density, then encode and attempt allocation at each in turn until one
/// succeeds.
Result<Schedule> ScheduleWithBases(const Instance& instance,
                                   const std::vector<std::uint64_t>& bases,
                                   SpecFn spec, const std::string& name) {
  if (instance.empty()) {
    return Status::InvalidArgument(name + ": empty instance");
  }
  struct Candidate {
    std::uint64_t base;
    double density;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(bases.size());
  for (std::uint64_t x : bases) {
    if (std::optional<double> density =
            EncodeInstance(instance, spec, x, nullptr)) {
      candidates.push_back(Candidate{x, *density});
    }
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
  for (const Candidate& c : candidates) {
    std::vector<ClassRequest> requests;
    requests.reserve(instance.size());
    EncodeInstance(instance, spec, c.base, &requests);
    Result<Schedule> r = Realize(instance, std::move(requests), name);
    if (r.ok()) return r;
    last = r.status();
  }
  return Status::Infeasible(name + ": could not schedule " +
                            instance.ToString() + " (last: " + last.message() +
                            ")");
}

}  // namespace

Result<Schedule> SaScheduler::BuildSchedule(const Instance& instance) const {
  const SpecFn powers_of_two = [](std::uint64_t, std::uint64_t b) {
    return std::optional<std::uint64_t>(LargestPowerOfTwoAtMost(b));
  };
  return ScheduleWithBases(instance, {1}, powers_of_two, name());
}

Result<Schedule> SxScheduler::BuildSchedule(const Instance& instance) const {
  return ScheduleWithBases(instance,
                           ChainBaseCandidates(DistinctWindows(instance)),
                           LargestChainValueAtMost, name());
}

Result<Schedule> SxyScheduler::BuildSchedule(const Instance& instance) const {
  return ScheduleWithBases(instance,
                           SmoothBaseCandidates(DistinctWindows(instance)),
                           LargestSmoothValueAtMost, name());
}

}  // namespace bdisk::pinwheel
