// E13 — static vs adaptive broadcast programs under demand drift.
//
// A Zipf-skewed client population requests files over a one-way broadcast;
// halfway through the run the popularity ranking reverses (yesterday's
// cold files are today's hot ones). The static server keeps the program it
// optimized for the original demand; the adaptive server closes the loop
// (src/adaptive/): decayed demand estimation per interval, square-root-
// rule re-optimization scored with the exact delay analyses, and hot swaps
// at period boundaries. Identical request trace, identical channel-fault
// realization — the only difference is adaptation.
//
// The shape assertion (also enforced ctest-side by tests/adaptive_test.cc)
// is the subsystem's reason to exist: adaptive mean retrieval delay must
// beat static under the flip.

#include <cstdio>
#include <memory>
#include <vector>

#include "adaptive/adaptive_loop.h"
#include "bench_util.h"
#include "faults/channel_model.h"
#include "runtime/flags.h"
#include "runtime/thread_pool.h"

namespace {

using namespace bdisk;             // NOLINT
using namespace bdisk::adaptive;   // NOLINT
using namespace bdisk::broadcast;  // NOLINT

std::vector<FlatFileSpec> Population(std::size_t files) {
  std::vector<FlatFileSpec> population;
  for (std::size_t i = 0; i < files; ++i) {
    // Mixed sizes: a third bulky, the rest small.
    const std::uint32_t m = i % 3 == 2 ? 6 : 3;
    population.push_back(
        {"F" + std::to_string(i), m, m + 2, {}});
  }
  return population;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads =
      runtime::OrExit(runtime::ConsumeThreadsFlagOnce(&argc, argv));
  const auto files = static_cast<std::size_t>(
      runtime::OrExit(runtime::ConsumeUintFlagOnce(&argc, argv, "files", 12)));
  const double theta = runtime::OrExit(
      runtime::ConsumeDoubleFlagOnce(&argc, argv, "theta", 1.1));
  runtime::OrExit(runtime::ExpectPositionals(argc, argv, 0));
  std::unique_ptr<runtime::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<runtime::ThreadPool>(threads);

  DriftingZipfWorkload workload;
  workload.requests = 30000;
  workload.theta = theta;
  workload.arrival_horizon = 200000;
  workload.flip_slot = 100000;
  workload.seed = 2024;
  const std::uint64_t interval_slots = 10000;

  std::printf("E13 / static vs adaptive broadcast program under demand "
              "drift\n");
  std::printf("%zu files, Zipf(%.2f) demand reversing at slot %llu, "
              "%llu requests over %llu slots, adaptation interval %llu, "
              "2%% loss, %u thread(s)\n\n",
              files, theta,
              static_cast<unsigned long long>(workload.flip_slot),
              static_cast<unsigned long long>(workload.requests),
              static_cast<unsigned long long>(workload.arrival_horizon),
              static_cast<unsigned long long>(interval_slots), threads);

  auto result = RunAdaptiveExperiment(Population(files), workload,
                                      interval_slots,
                                      faults::BernoulliChannel(0.02, 1337),
                                      pool.get());
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const double static_mean = result->static_metrics.OverallMeanLatency();
  const double adaptive_mean =
      result->adaptive_metrics.OverallMeanLatency();
  const double improvement =
      100.0 * (static_mean - adaptive_mean) / static_mean;

  std::printf("%-10s %14s %14s %10s\n", "timeline", "mean delay", "max "
              "delay", "miss rate");
  std::printf("%-10s %14.1f %14.0f %10.4f\n", "static", static_mean,
              result->static_metrics.OverallMaxLatency(),
              result->static_metrics.OverallMissRate());
  std::printf("%-10s %14.1f %14.0f %10.4f\n", "adaptive", adaptive_mean,
              result->adaptive_metrics.OverallMaxLatency(),
              result->adaptive_metrics.OverallMissRate());
  std::printf("\nhot swaps: %zu\n", result->swaps);
  for (std::size_t e = 1; e < result->schedule.epoch_count(); ++e) {
    const auto& epoch = result->schedule.epochs()[e];
    std::printf("  epoch %zu from slot %llu (period %llu)\n", e,
                static_cast<unsigned long long>(epoch.start_slot),
                static_cast<unsigned long long>(epoch.program.period()));
  }

  bool ok = true;
  ok &= result->swaps >= 1;
  ok &= adaptive_mean < static_mean;

  benchutil::EmitJson("bench_adaptive", "static_mean_delay_slots",
                      static_mean, threads);
  benchutil::EmitJson("bench_adaptive", "adaptive_mean_delay_slots",
                      adaptive_mean, threads);
  benchutil::EmitJson("bench_adaptive", "improvement_pct", improvement,
                      threads);
  benchutil::EmitJson("bench_adaptive", "hot_swaps",
                      static_cast<double>(result->swaps), threads);
  benchutil::EmitJson("bench_adaptive", "shape_ok", ok ? 1 : 0, threads);
  std::printf("\nshape checks (>= 1 swap; adaptive mean < static mean "
              "under the flip): %s  (improvement %.1f%%)\n",
              ok ? "PASS" : "FAIL", improvement);
  return ok ? 0 : 1;
}
