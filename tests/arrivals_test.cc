// Property tests for the Poisson arrival process (sim/arrivals.h).
//
// Statistical checks run at fixed seeds with tolerances sized for the
// sample counts used, so they are deterministic — a failure means the
// construction changed, not that the dice came up bad. The determinism
// contract (pure per-client draws, random access, shard invariance) is
// checked exactly, no tolerances.

#include "sim/arrivals.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace bdisk::sim {
namespace {

std::vector<double> SampleTimes(const PoissonArrivals& process,
                                std::uint64_t count) {
  std::vector<double> times(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    times[i] = process.ArrivalTimeOf(i);
  }
  return times;
}

// ---------------------------------------------------------------------------
// Poisson: sorted inter-arrival gaps must look exponential.

// Kolmogorov-Smirnov distance between the sorted sample and Exp(mean).
double KsDistanceToExponential(std::vector<double> sample, double mean) {
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  double ks = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double cdf = 1.0 - std::exp(-sample[i] / mean);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    ks = std::max(ks, std::max(std::abs(cdf - lo), std::abs(cdf - hi)));
  }
  return ks;
}

TEST(PoissonArrivalsTest, InterArrivalGapsAreExponential) {
  constexpr std::uint64_t kClients = 20000;
  constexpr std::uint64_t kWindow = 100000;
  const PoissonArrivals process(kWindow, /*seed=*/7);

  std::vector<double> times = SampleTimes(process, kClients);
  for (const double t : times) {
    ASSERT_GE(t, 0.0);
    ASSERT_LT(t, static_cast<double>(kWindow));
  }
  std::sort(times.begin(), times.end());
  std::vector<double> gaps(times.size() - 1);
  for (std::size_t i = 0; i + 1 < times.size(); ++i) {
    gaps[i] = times[i + 1] - times[i];
  }

  // Conditional uniformity: gaps of N uniforms on [0, W) are exchangeable
  // with mean W/(N+1) and, for large N, near-exponential.
  const double expected_mean =
      static_cast<double>(kWindow) / static_cast<double>(kClients + 1);
  double sum = 0.0;
  for (const double g : gaps) sum += g;
  const double mean = sum / static_cast<double>(gaps.size());
  EXPECT_NEAR(mean / expected_mean, 1.0, 0.02);

  // Exponential: variance == mean^2. Check the ratio.
  double var = 0.0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size() - 1);
  EXPECT_NEAR(var / (mean * mean), 1.0, 0.05);

  // KS distance to Exp(expected_mean): far below any divergence a broken
  // construction (e.g. accidentally sequential or lattice draws) produces.
  EXPECT_LT(KsDistanceToExponential(gaps, expected_mean), 0.02);
}

// ---------------------------------------------------------------------------
// Determinism contract: random access, shard invariance, seed identity.

TEST(ArrivalDeterminismTest, RandomAccessEqualsSequentialAccess) {
  const PoissonArrivals process(5000, 11);
  // Sequential pass...
  std::vector<double> sequential = SampleTimes(process, 1000);
  // ...must match isolated random-access draws, in any order.
  for (const std::uint64_t i :
       {std::uint64_t{999}, std::uint64_t{0}, std::uint64_t{500},
        std::uint64_t{7}, std::uint64_t{123}}) {
    EXPECT_EQ(process.ArrivalTimeOf(i), sequential[i])
        << process.Describe() << " client " << i;
  }
}

TEST(ArrivalDeterminismTest, ShardPartitioningObservesIdenticalTrace) {
  constexpr std::uint64_t kClients = 4096;
  const PoissonArrivals process(10000, 33);
  const std::vector<double> trace = SampleTimes(process, kClients);

  // Any shard partition reads the same per-client times: walk the fleet in
  // 1-, 3-, and 7-shard interleavings and compare every draw.
  for (const std::uint64_t shards : {1ull, 3ull, 7ull}) {
    for (std::uint64_t s = 0; s < shards; ++s) {
      for (std::uint64_t i = s; i < kClients; i += shards) {
        ASSERT_EQ(process.ArrivalTimeOf(i), trace[i])
            << shards << " shards, client " << i;
      }
    }
  }
}

TEST(ArrivalDeterminismTest, SeedsSeparateAndReproduce) {
  const PoissonArrivals a1(10000, 1), a2(10000, 1), b(10000, 2);
  std::uint64_t diverged = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a1.ArrivalTimeOf(i), a2.ArrivalTimeOf(i)) << i;
    if (a1.ArrivalTimeOf(i) != b.ArrivalTimeOf(i)) ++diverged;
  }
  // Different seeds give an (essentially) disjoint trace.
  EXPECT_GT(diverged, 990u);
}

TEST(ArrivalSlotTest, SlotIsFloorAndInWindow) {
  const PoissonArrivals process(777, 3);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::uint64_t slot = process.ArrivalSlotOf(i);
    EXPECT_EQ(slot,
              static_cast<std::uint64_t>(process.ArrivalTimeOf(i)));
    EXPECT_LT(slot, 777u);
  }
}

}  // namespace
}  // namespace bdisk::sim
