// E6 — Scheduler ablation: empirical success rate versus instance density.
//
// Supports the paper's reliance on Chan & Chin's 7/10-density scheduler:
// our reconstruction (Sxy) should succeed on (nearly) all instances up to
// density ~0.7, Sa up to 0.5 (its guarantee), with the exact solver as
// ground truth on the same instances (feasible-but-missed vs truly
// infeasible).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "pinwheel/chain_schedulers.h"
#include "pinwheel/exact_scheduler.h"
#include "pinwheel/greedy_scheduler.h"
#include "runtime/flags.h"

namespace {

using bdisk::Rng;
using namespace bdisk::pinwheel;  // NOLINT

// Random single-unit instance with density in [target - 0.03, target].
// Windows are kept small (<= 18) so the exact solver can act as ground
// truth within a bounded state budget.
Instance RandomInstance(Rng* rng, double target) {
  std::vector<Task> tasks;
  double density = 0.0;
  TaskId id = 0;
  int stall = 0;
  while (density < target - 0.03 && tasks.size() < 7 && stall < 64) {
    const std::uint64_t b = 2 + rng->Uniform(17);
    const double d = 1.0 / static_cast<double>(b);
    if (density + d > target) {
      ++stall;
      continue;
    }
    tasks.push_back({id++, 1, b});
    density += d;
  }
  if (tasks.empty()) tasks.push_back({0, 1, 64});
  auto inst = Instance::Create(std::move(tasks));
  return *inst;
}

}  // namespace

int main(int argc, char** argv) {
  bdisk::runtime::OrExit(bdisk::runtime::ExpectPositionals(argc, argv, 0));
  std::printf("E6 / scheduler ablation: success rate vs density "
              "(200 random single-unit instances per bin)\n\n");
  Rng rng(7777);
  SaScheduler sa;
  SxScheduler sx;
  SxyScheduler sxy;
  GreedyScheduler greedy;
  ExactSchedulerOptions exact_options;
  exact_options.max_states = 200000;  // Undecided instances are skipped.
  ExactScheduler exact(exact_options);

  std::printf("%-9s %-9s %-9s %-9s %-9s %-10s\n", "density", "Sa", "Sx",
              "Sxy", "Greedy", "feasible*");
  bool ok = true;
  for (double target : {0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9}) {
    const int kTrials = 200;
    int sa_ok = 0;
    int sx_ok = 0;
    int sxy_ok = 0;
    int greedy_ok = 0;
    int feasible = 0;
    int decided = 0;
    for (int t = 0; t < kTrials; ++t) {
      const Instance inst = RandomInstance(&rng, target);
      const bool a = sa.BuildSchedule(inst).ok();
      const bool x = sx.BuildSchedule(inst).ok();
      const bool xy = sxy.BuildSchedule(inst).ok();
      const bool g = greedy.BuildSchedule(inst).ok();
      sa_ok += a;
      sx_ok += x;
      sxy_ok += xy;
      greedy_ok += g;
      auto verdict = exact.IsFeasible(inst);
      if (verdict.ok()) {
        ++decided;
        feasible += *verdict;
        // No heuristic may "succeed" on a provably infeasible instance
        // (schedules are verified, so this would be a library bug).
        if (!*verdict && (a || x || xy || g)) ok = false;
      }
      // Sa's guarantee.
      if (inst.density() <= 0.5 && !a) ok = false;
    }
    std::printf("%-9.2f %-9.2f %-9.2f %-9.2f %-9.2f %.2f (n=%d)\n", target,
                static_cast<double>(sa_ok) / kTrials,
                static_cast<double>(sx_ok) / kTrials,
                static_cast<double>(sxy_ok) / kTrials,
                static_cast<double>(greedy_ok) / kTrials,
                decided > 0 ? static_cast<double>(feasible) / decided : 0.0,
                decided);
  }
  std::printf("\n*feasible = exact-solver ground truth on instances it "
              "decided within budget\n");
  std::printf("\nexpected shape: Sa ~1.0 through 0.5 (its guarantee) then "
              "degrading; Sx and Sxy near 1.0 through ~0.7, the Chan-Chin "
              "density the paper's Eq. (1)/(2) rely on; greedy degrades "
              "earliest. (Sxy's richer window set can lose to Sx when its "
              "non-chain residue allocation fails; the composite portfolio "
              "takes whichever succeeds.)\n");
  benchutil::EmitJson("bench_scheduler_density", "shape_ok", ok ? 1 : 0, 1);
  std::printf("\nconsistency checks: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
