/// \file arrivals.h
/// \brief Client arrivals for fleet-scale simulation.
///
/// `PoissonArrivals` assigns every client of a fleet a start time on the
/// broadcast timeline. Like the channel models (faults/channel_model.h),
/// arrivals obey the **determinism contract**: `ArrivalTimeOf(i)` is a
/// *pure* function of (window, seed, client index i), computed
/// from the counter-based RNG streams of runtime/rng_stream.h — never from
/// mutable sequential state. Consequently an arrival trace is
///
///   (a) exactly reproducible from its seed,
///   (b) random-access — client 10^6's arrival needs no walk over the
///       first million clients, and
///   (c) shard-count invariant — any partition of the fleet across
///       threads observes the identical trace, which is what keeps the
///       event engine's sharded metrics bit-identical to the serial path.
///
/// **Poisson construction.** A homogeneous Poisson process cannot be
/// random-access through its inter-arrival increments (arrival i is a sum
/// of i exponentials). We use the conditional-uniformity property instead:
/// given the number of arrivals N in a window, the arrival times of a
/// Poisson process are N i.i.d. uniforms on the window. For a fixed fleet
/// of N clients the process therefore draws client i's time i.i.d.
/// uniform — the binomial point process, which is exactly the rate-N/W
/// Poisson process conditioned on its count. The *sorted* trace has the
/// Poisson spacing statistics (exchangeable near-exponential gaps of mean
/// W/(N+1)), which is what tests/arrivals_test.cc checks.
///
/// `PoissonArrivals` is safe for concurrent const use.

#ifndef BDISK_SIM_ARRIVALS_H_
#define BDISK_SIM_ARRIVALS_H_

#include <cstdint>
#include <string>

namespace bdisk::sim {

/// \brief Stationary (homogeneous Poisson) arrivals: each client's time is
/// i.i.d. uniform on [0, window); for a fleet of N clients this is the
/// rate-(N / window) Poisson process conditioned on its count.
class PoissonArrivals {
 public:
  /// `window_slots` must be positive.
  PoissonArrivals(std::uint64_t window_slots, std::uint64_t seed);

  /// Continuous arrival time of client `i`, in [0, window_slots). Pure:
  /// depends only on the window, the seed and `i`.
  double ArrivalTimeOf(std::uint64_t client) const;

  /// Arrival time of client `i` quantized to a broadcast slot
  /// (floor of ArrivalTimeOf, so always < window_slots).
  std::uint64_t ArrivalSlotOf(std::uint64_t client) const {
    return static_cast<std::uint64_t>(ArrivalTimeOf(client));
  }

  /// Width of the arrival window in slots (arrivals land in [0, window)).
  std::uint64_t window_slots() const { return window_; }

  /// Canonical human-readable description, e.g. "poisson:window=10000,seed=7".
  std::string Describe() const;

 private:
  std::uint64_t window_;
  std::uint64_t seed_;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_ARRIVALS_H_
