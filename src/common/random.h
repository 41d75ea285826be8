/// \file random.h
/// \brief Deterministic pseudo-random number generation for simulations and
/// workload generators.
///
/// All stochastic components of the library take a `Rng*` so that experiments
/// are reproducible from a single seed. The generator is SplitMix64-seeded
/// xoshiro256**, which is fast, high-quality, and has no global state.

#ifndef BDISK_COMMON_RANDOM_H_
#define BDISK_COMMON_RANDOM_H_

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"

namespace bdisk {

/// \brief xoshiro256** pseudo-random generator with convenience samplers.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;
  /// The four xoshiro256** state words.
  using State = std::array<std::uint64_t, 4>;

  /// Constructs a generator from a 64-bit seed (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  /// A generator resuming from `state` (as read by state()), for code that
  /// jumps the stream ahead (sim/contents.h). Any state is accepted; the
  /// all-zero one yields zeros forever.
  static Rng FromState(const State& state) {
    Rng rng;
    rng.state_ = state;
    return rng;
  }

  /// The current state: the next draw is a function of it alone.
  const State& state() const { return state_; }

  /// Re-seeds the generator.
  void Seed(std::uint64_t seed) {
    // SplitMix64 expansion; guarantees a non-zero state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Next raw 64-bit output.
  std::uint64_t operator()() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be positive.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t Uniform(std::uint64_t bound) {
    BDISK_DCHECK(bound > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    BDISK_DCHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    Uniform(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Samples `k` distinct indices from [0, n) uniformly (Floyd's algorithm).
  /// Requires k <= n. Result is in no particular order.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Fisher–Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = Uniform(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  State state_;
};

}  // namespace bdisk

#endif  // BDISK_COMMON_RANDOM_H_
