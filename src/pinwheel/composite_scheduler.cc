#include "pinwheel/composite_scheduler.h"

#include "pinwheel/chain_schedulers.h"
#include "pinwheel/exact_scheduler.h"
#include "pinwheel/greedy_scheduler.h"

namespace bdisk::pinwheel {

namespace {

/// The exact search is attempted only if the product of the unit-reduced
/// windows (a crude state-space bound) is at most this value.
constexpr double kExactStateBound = 1e6;

}  // namespace

CompositeScheduler::CompositeScheduler() {
  schedulers_.push_back(std::make_unique<SxyScheduler>());
  schedulers_.push_back(std::make_unique<SxScheduler>());
  schedulers_.push_back(std::make_unique<SaScheduler>());
  schedulers_.push_back(std::make_unique<GreedyScheduler>());
  schedulers_.push_back(std::make_unique<ExactScheduler>());
}

Result<Schedule> CompositeScheduler::BuildSchedule(
    const Instance& instance) const {
  std::string failures;
  for (std::size_t i = 0; i < schedulers_.size(); ++i) {
    const auto& s = schedulers_[i];
    if (i + 1 == schedulers_.size()) {
      // Gate the complete search behind a crude state-space estimate.
      double bound = 1.0;
      for (const Task& t : instance.tasks()) {
        for (std::uint64_t k = 0; k < t.a && bound <= kExactStateBound; ++k) {
          bound *= static_cast<double>(t.b);
        }
        if (bound > kExactStateBound) break;
      }
      if (bound > kExactStateBound) break;
    }
    Result<Schedule> r = s->BuildSchedule(instance);
    if (r.ok()) return r;
    if (r.status().IsInternal()) return r;  // Library bug: surface, don't mask.
    if (!failures.empty()) failures += "; ";
    failures += s->name() + ": " + r.status().message();
  }
  return Status::Infeasible("Composite: all schedulers failed [" + failures +
                            "]");
}

}  // namespace bdisk::pinwheel
