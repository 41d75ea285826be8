// Tests for the adaptive subsystem: demand estimation, demand-driven
// program optimization (determinism, canonical order), hot-swap
// coordination, the closed loop beating a static program under demand
// drift, and the bound on its replay horizon.

#include <gtest/gtest.h>

#include <numeric>

#include "adaptive/adaptive_loop.h"
#include "adaptive/demand_estimator.h"
#include "adaptive/hot_swap.h"
#include "adaptive/program_optimizer.h"
#include "bdisk/flat_builder.h"
#include "bdisk/multi_disk.h"
#include "common/zipf.h"
#include "faults/channel_model.h"
#include "prime_rotation_program.h"
#include "runtime/thread_pool.h"

namespace bdisk::adaptive {
namespace {

using broadcast::BroadcastProgram;
using broadcast::FileIndex;
using broadcast::FlatFileSpec;

std::vector<FlatFileSpec> Population() {
  std::vector<FlatFileSpec> files;
  for (int i = 0; i < 8; ++i) {
    files.push_back({"F" + std::to_string(i), 3, 5, {}});
  }
  return files;
}

TEST(DemandEstimatorTest, SharesTrackObservations) {
  DemandEstimator estimator(4, 0.5);
  estimator.Observe(0, 300);
  estimator.Observe(1, 100);
  const std::vector<double> shares = estimator.Shares();
  EXPECT_NEAR(std::accumulate(shares.begin(), shares.end(), 0.0), 1.0,
              1e-12);
  EXPECT_GT(shares[0], shares[1]);
  EXPECT_GT(shares[1], shares[2]);
  EXPECT_GT(shares[2], 0.0);  // Uniform floor: never zero.
  EXPECT_EQ(estimator.total_observed(), 400u);
}

TEST(DemandEstimatorTest, DecayForgetsOldIntervals) {
  DemandEstimator estimator(2, 0.25);
  estimator.Observe(0, 1000);
  estimator.FoldInterval();
  // Four quiet intervals, then the other file takes over.
  for (int i = 0; i < 4; ++i) estimator.FoldInterval();
  estimator.Observe(1, 100);
  const std::vector<double> shares = estimator.Shares();
  // 1000 * 0.25^5 < 1 << 100: file 1 dominates despite the smaller burst.
  EXPECT_GT(shares[1], shares[0]);
}

TEST(ProgramOptimizerTest, SkewedDemandSpeedsUpHotFiles) {
  auto optimizer = ProgramOptimizer::Create(Population());
  ASSERT_TRUE(optimizer.ok()) << optimizer.status();
  const ZipfDistribution zipf(8, 1.2);
  auto result = optimizer->Optimize(zipf.Probabilities());
  ASSERT_TRUE(result.ok()) << result.status();
  const BroadcastProgram& p = result->program;
  // Canonical order and geometry preserved (the hot-swap requirement).
  ASSERT_EQ(p.file_count(), 8u);
  for (FileIndex f = 0; f < 8; ++f) {
    EXPECT_EQ(p.files()[f].name, "F" + std::to_string(f));
    EXPECT_EQ(p.files()[f].m, 3u);
    EXPECT_EQ(p.files()[f].n, 5u);
  }
  // The hottest file is broadcast strictly more often per period than the
  // coldest, and its mean retrieval latency is lower.
  const double hot_rate = static_cast<double>(p.CountOf(0)) /
                          static_cast<double>(p.period());
  const double cold_rate = static_cast<double>(p.CountOf(7)) /
                           static_cast<double>(p.period());
  EXPECT_GT(hot_rate, cold_rate);
  EXPECT_LT(broadcast::MeanRetrievalLatency(p, 0),
            broadcast::MeanRetrievalLatency(p, 7));
  EXPECT_GT(result->class_count, 1u);
}

TEST(ProgramOptimizerTest, UniformDemandPrefersFlat) {
  auto optimizer = ProgramOptimizer::Create(Population());
  ASSERT_TRUE(optimizer.ok());
  const std::vector<double> uniform(8, 1.0 / 8.0);
  auto result = optimizer->Optimize(uniform);
  ASSERT_TRUE(result.ok()) << result.status();
  // Every file ends up with the same per-period transmission count.
  const BroadcastProgram& p = result->program;
  for (FileIndex f = 1; f < 8; ++f) {
    EXPECT_EQ(p.CountOf(f), p.CountOf(0));
  }
}

TEST(ProgramOptimizerTest, ParallelOptimizeIsBitIdentical) {
  auto optimizer = ProgramOptimizer::Create(Population());
  ASSERT_TRUE(optimizer.ok());
  const ZipfDistribution zipf(8, 0.95);
  auto serial = optimizer->Optimize(zipf.Probabilities());
  ASSERT_TRUE(serial.ok()) << serial.status();
  runtime::ThreadPool pool(4);
  auto parallel = optimizer->Optimize(zipf.Probabilities(), &pool);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(serial->candidate_index, parallel->candidate_index);
  EXPECT_EQ(serial->program.slots(), parallel->program.slots());
  EXPECT_EQ(serial->score.expected_mean_delay,
            parallel->score.expected_mean_delay);
}

TEST(ProgramOptimizerTest, RejectsMalformedInputs) {
  EXPECT_FALSE(ProgramOptimizer::Create({}).ok());
  EXPECT_FALSE(
      ProgramOptimizer::Create({{"a", 2, 1, {}}}).ok());  // n < m.
  EXPECT_FALSE(
      ProgramOptimizer::Create({{"a", 1, 1, {}}, {"a", 1, 1, {}}}).ok());
  auto optimizer = ProgramOptimizer::Create(Population());
  ASSERT_TRUE(optimizer.ok());
  EXPECT_FALSE(optimizer->Optimize({0.5, 0.5}).ok());  // Wrong arity.
}

TEST(HotSwapCoordinatorTest, AlignsSwapsToPeriodBoundaries) {
  auto initial = broadcast::BuildFlatProgram(Population(),
                                             broadcast::FlatLayout::kSpread);
  ASSERT_TRUE(initial.ok());
  const std::uint64_t period = initial->period();
  HotSwapCoordinator coordinator(*initial);

  auto next = broadcast::BuildFlatProgram(Population(),
                                          broadcast::FlatLayout::kContiguous);
  ASSERT_TRUE(next.ok());
  auto swap = coordinator.ScheduleSwap(*next, period + 1);
  ASSERT_TRUE(swap.ok()) << swap.status();
  EXPECT_EQ(*swap, 2 * period);
  EXPECT_EQ(coordinator.epoch_count(), 2u);

  // A swap "now" (not_before inside the current epoch) lands on the next
  // boundary of the new current program, strictly after its start.
  auto again = coordinator.ScheduleSwap(*initial, 2 * period);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 2 * period + next->period());
}

TEST(HotSwapCoordinatorTest, RejectsGeometryChanges) {
  auto initial = broadcast::BuildFlatProgram(Population(),
                                             broadcast::FlatLayout::kSpread);
  ASSERT_TRUE(initial.ok());
  HotSwapCoordinator coordinator(*initial);
  auto bigger = Population();
  bigger.push_back({"extra", 1, 1, {}});
  auto next = broadcast::BuildFlatProgram(bigger,
                                          broadcast::FlatLayout::kSpread);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(coordinator.ScheduleSwap(*next, 0).ok());
  EXPECT_EQ(coordinator.epoch_count(), 1u);  // Timeline unchanged.
}

TEST(AdaptiveLoopTest, ControllerSwapsOnDemandFlip) {
  const auto files = Population();
  const ZipfDistribution zipf(files.size(), 1.0);
  auto optimizer = ProgramOptimizer::Create(files);
  ASSERT_TRUE(optimizer.ok());
  auto initial = optimizer->Optimize(zipf.Probabilities());
  ASSERT_TRUE(initial.ok());

  auto controller = AdaptiveController::Create(files, initial->program);
  ASSERT_TRUE(controller.ok()) << controller.status();

  // Steady pre-flip demand: no swap (the incumbent is already optimal).
  std::vector<std::uint64_t> preflip(files.size(), 0);
  for (std::size_t f = 0; f < files.size(); ++f) {
    preflip[f] = static_cast<std::uint64_t>(10000 * zipf.ProbabilityOf(f));
  }
  auto swapped = controller->EndInterval(preflip, 1000);
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_FALSE(*swapped);

  // Flipped demand: the controller must re-optimize and swap.
  std::vector<std::uint64_t> flipped(preflip.rbegin(), preflip.rend());
  bool saw_swap = false;
  std::uint64_t end = 2000;
  for (int interval = 0; interval < 4 && !saw_swap; ++interval) {
    auto result = controller->EndInterval(flipped, end);
    ASSERT_TRUE(result.ok()) << result.status();
    saw_swap = *result;
    end += 1000;
  }
  EXPECT_TRUE(saw_swap);
  EXPECT_EQ(controller->swap_count(), 1u);
  // The post-swap program serves the flipped demand better than the
  // incumbent did.
  const BroadcastProgram& post =
      controller->schedule().epochs().back().program;
  EXPECT_GT(post.CountOf(static_cast<FileIndex>(files.size() - 1)),
            post.CountOf(0));
}

// The acceptance criterion: under a mid-run demand flip, the adaptive
// timeline's mean retrieval delay beats the static program's.
TEST(AdaptiveLoopTest, AdaptiveBeatsStaticUnderDrift) {
  DriftingZipfWorkload workload;
  workload.requests = 6000;
  workload.theta = 1.1;
  workload.arrival_horizon = 30000;
  workload.flip_slot = 15000;
  workload.seed = 9;

  auto result = RunAdaptiveExperiment(Population(), workload,
                                      /*interval_slots=*/3000,
                                      faults::BernoulliChannel(0.02, 41));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->swaps, 1u);
  const double static_mean = result->static_metrics.OverallMeanLatency();
  const double adaptive_mean = result->adaptive_metrics.OverallMeanLatency();
  EXPECT_LT(adaptive_mean, static_mean);
  // Every request completes under both timelines (horizon is generous;
  // incomplete retrievals count into the miss rate).
  EXPECT_EQ(result->static_metrics.TotalAttempts(), workload.requests);
  EXPECT_EQ(result->static_metrics.OverallMissRate(), 0.0);
  EXPECT_EQ(result->adaptive_metrics.OverallMissRate(), 0.0);
}

// Determinism: the whole experiment is bit-identical with and without a
// thread pool.
TEST(AdaptiveLoopTest, ExperimentIsThreadCountInvariant) {
  DriftingZipfWorkload workload;
  workload.requests = 1500;
  workload.arrival_horizon = 12000;
  workload.flip_slot = 6000;

  const faults::BernoulliChannel channel(0.05, 7);
  auto serial = RunAdaptiveExperiment(Population(), workload, 2000, channel);
  ASSERT_TRUE(serial.ok()) << serial.status();
  runtime::ThreadPool pool(4);
  auto parallel =
      RunAdaptiveExperiment(Population(), workload, 2000, channel, &pool);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(serial->swaps, parallel->swaps);
  ASSERT_EQ(serial->schedule.epoch_count(), parallel->schedule.epoch_count());
  for (std::size_t e = 0; e < serial->schedule.epoch_count(); ++e) {
    EXPECT_EQ(serial->schedule.epochs()[e].start_slot,
              parallel->schedule.epochs()[e].start_slot);
    EXPECT_EQ(serial->schedule.epochs()[e].program.slots(),
              parallel->schedule.epochs()[e].program.slots());
  }
  EXPECT_EQ(serial->adaptive_metrics.OverallMeanLatency(),
            parallel->adaptive_metrics.OverallMeanLatency());
  EXPECT_EQ(serial->static_metrics.OverallMeanLatency(),
            parallel->static_metrics.OverallMeanLatency());
}

// A data cycle past 2^64 slots: the replay horizon (the arrivals plus 8
// data cycles) cannot fit in 2^32 - 1 slots, so the experiment fails.
TEST(AdaptiveLoopTest, DataCyclePastHorizonBoundIsRejected) {
  auto initial = broadcast::PrimeRotationProgram();
  ASSERT_TRUE(initial.ok()) << initial.status();
  std::vector<FlatFileSpec> files;
  for (const broadcast::ProgramFile& pf : initial->files()) {
    files.push_back({pf.name, pf.m, pf.n, {}});
  }
  DriftingZipfWorkload workload;
  workload.requests = 200;
  workload.arrival_horizon = 2000;
  workload.flip_slot = 1000;
  auto result = RunAdaptiveExperiment(files, workload, 1000,
                                      faults::LosslessChannel(), nullptr,
                                      &*initial);
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
}

}  // namespace
}  // namespace bdisk::adaptive
