// Unit tests for the common RNG, Zipf and statistics helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <set>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/zipf.h"

namespace bdisk {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesRate) {
  Rng rng(23);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.SampleWithoutReplacement(20, 7);
    ASSERT_EQ(sample.size(), 7u);
    std::set<std::size_t> s(sample.begin(), sample.end());
    EXPECT_EQ(s.size(), 7u);
    for (std::size_t v : sample) EXPECT_LT(v, 20u);
  }
}

TEST(RngTest, SampleFullRange) {
  Rng rng(37);
  const auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<std::size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s, (std::set<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// Sample is std::upper_bound over the cumulative table, capped at the last
// item. The test rebuilds the table the way the constructor does — an
// in-order sum of the probabilities with the last entry set to 1.0 — and
// compares on every entry and its neighbours, every bucket edge k / 2^j of
// a guide table of up to 2^14 buckets and its neighbours, the edges of the
// domain, and seeded uniform draws. n = 1000 at theta = 2.5 has buckets
// that hold many cumulative boundaries, so the scan is covered as well as
// the one-step buckets.
TEST(ZipfTest, SampleMatchesUpperBoundOfCumulativeTable) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::uint64_t seed = 1;
  for (const std::size_t n : {1, 2, 3, 5, 16, 17, 64, 1000}) {
    for (const double theta : {0.0, 0.95, 2.5}) {
      const ZipfDistribution zipf(n, theta);
      std::vector<double> cumulative;
      double running = 0.0;
      for (const double p : zipf.Probabilities()) {
        running += p;
        cumulative.push_back(running);
      }
      cumulative.back() = 1.0;
      ASSERT_TRUE(std::is_sorted(cumulative.begin(), cumulative.end()));

      std::vector<double> inputs = {
          0.0, -0.0, std::nextafter(1.0, 0.0), 1.0, 2.0, kInf, -kInf,
          std::numeric_limits<double>::quiet_NaN()};
      for (const double c : cumulative) {
        inputs.push_back(std::nextafter(c, -kInf));
        inputs.push_back(c);
        inputs.push_back(std::nextafter(c, kInf));
      }
      for (int j = 0; j <= 14; ++j) {
        for (std::uint64_t k = 0; k <= (1ULL << j); ++k) {
          const double edge = std::ldexp(static_cast<double>(k), -j);
          inputs.push_back(std::nextafter(edge, -kInf));
          inputs.push_back(edge);
          inputs.push_back(std::nextafter(edge, kInf));
        }
      }
      Rng rng(seed++);
      for (int i = 0; i < 100000; ++i) inputs.push_back(rng.UniformDouble());

      for (const double u : inputs) {
        const auto upper =
            std::upper_bound(cumulative.begin(), cumulative.end(), u);
        const std::size_t want = std::min<std::size_t>(
            static_cast<std::size_t>(upper - cumulative.begin()), n - 1);
        ASSERT_EQ(zipf.Sample(u), want)
            << "n " << n << " theta " << theta << " u " << u;
      }
    }
  }
}

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // Population variance.
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble() * 10;
    if (i % 2 == 0) {
      a.Add(x);
    } else {
      b.Add(x);
    }
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergePartitionInvariantExactly) {
  // Property test: merging ANY partition of a sample stream, in ANY order,
  // reproduces single-pass accumulation bit for bit (for exactly
  // representable observations — here integer-valued, like the simulator's
  // slot latencies). The sharded simulator relies on this.
  Rng rng(101);
  std::vector<double> samples;
  samples.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(static_cast<double>(rng.Uniform(1000)));
  }
  RunningStats single;
  for (double x : samples) single.Add(x);

  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t parts_count = 1 + rng.Uniform(8);
    std::vector<RunningStats> parts(parts_count);
    for (double x : samples) parts[rng.Uniform(parts_count)].Add(x);
    std::vector<std::size_t> order(parts_count);
    for (std::size_t i = 0; i < parts_count; ++i) order[i] = i;
    rng.Shuffle(&order);
    RunningStats merged;
    for (std::size_t idx : order) merged.Merge(parts[idx]);
    // Exact equality, not EXPECT_NEAR.
    EXPECT_EQ(merged.count(), single.count());
    EXPECT_EQ(merged.sum(), single.sum());
    EXPECT_EQ(merged.mean(), single.mean());
    EXPECT_EQ(merged.variance(), single.variance());
    EXPECT_EQ(merged.min(), single.min());
    EXPECT_EQ(merged.max(), single.max());
  }
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(GcdLcmTest, Gcd) {
  EXPECT_EQ(Gcd(12, 18), 6u);
  EXPECT_EQ(Gcd(7, 13), 1u);
  EXPECT_EQ(Gcd(0, 5), 5u);
  EXPECT_EQ(Gcd(5, 0), 5u);
  EXPECT_EQ(Gcd(48, 48), 48u);
}

TEST(GcdLcmTest, LcmBasics) {
  EXPECT_EQ(LcmCapped(4, 6), 12u);
  EXPECT_EQ(LcmCapped(1, 9), 9u);
  EXPECT_EQ(LcmCapped(8, 8), 8u);
}

TEST(GcdLcmTest, LcmSaturatesAtCap) {
  EXPECT_EQ(LcmCapped(1000000007ULL, 998244353ULL, 1000), 1000u);
}

}  // namespace
}  // namespace bdisk
