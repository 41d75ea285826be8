/// \file rate_limiter.h
/// \brief Token-bucket pacing for the broadcast wire.
///
/// The paper's channel has a fixed bandwidth; the wire server must honor
/// it instead of blasting datagrams as fast as the loopback accepts them.
/// The design follows the classic token bucket (as in libfilezilla's
/// rate_limiter): a bucket holds up to `burst` bytes of credit, refilled
/// continuously at `rate` bytes/second, and a send of B bytes may go out
/// at the earliest instant the bucket holds B tokens.
///
/// **Deterministic core.** The arithmetic lives in `ReserveAt(now_ns,
/// bytes)`: a pure state transition on an explicit clock, so tests drive a
/// virtual clock and assert exact send times — no sleeping, no wall-clock
/// flakiness. `Throttle(bytes)` is the wall-clock convenience wrapper the
/// server uses: reserve against the monotonic clock, sleep until the
/// granted instant.
///
/// **Accuracy.** Credit accrues in integer nanoseconds of transmission
/// time (`bytes * 1e9 / rate`, 128-bit intermediate), so there is no
/// floating-point drift: over any window in which the bucket never sits
/// full, granted bytes match `rate * elapsed` to within one datagram.
/// Sleep overshoot self-corrects the same way — while the sender
/// oversleeps the bucket keeps earning, and the following sends go out
/// back-to-back until the debt clears. The default burst (`rate / 64`,
/// ~15 ms of credit, floored at 64 KiB) comfortably absorbs scheduler
/// jitter; the CI gate asserts measured wire throughput within ±5% of the
/// configured budget.

#ifndef BDISK_NET_RATE_LIMITER_H_
#define BDISK_NET_RATE_LIMITER_H_

#include <cstdint>

namespace bdisk::net {

/// \brief One token bucket. Not thread-safe: the broadcast server is a
/// single send loop (shard the bucket per flow, not per thread).
class TokenBucket {
 public:
  /// \param rate_bytes_per_sec  sustained budget; must be positive.
  /// \param burst_bytes         bucket capacity; 0 picks the default
  ///                            max(rate / 64, 64 KiB).
  explicit TokenBucket(std::uint64_t rate_bytes_per_sec,
                       std::uint64_t burst_bytes = 0);

  /// Reserves `bytes` of budget as of clock reading `now_ns` and returns
  /// the earliest instant (>= now_ns) the send may go out. The
  /// reservation is committed: subsequent calls account for it. Pure in
  /// the clock — the caller owns time.
  std::uint64_t ReserveAt(std::uint64_t now_ns, std::uint64_t bytes);

  /// Wall-clock pacing: reserves against the monotonic clock and sleeps
  /// until the granted instant.
  void Throttle(std::uint64_t bytes);

  std::uint64_t rate_bytes_per_sec() const { return rate_; }
  std::uint64_t burst_bytes() const { return burst_; }

  /// The process monotonic clock in nanoseconds (the clock Throttle
  /// reserves against — exposed so callers can measure with the same one).
  static std::uint64_t MonotonicNowNs();

 private:
  /// Nanoseconds of transmission time `bytes` costs at this bucket's rate.
  std::uint64_t CostNs(std::uint64_t bytes) const;

  std::uint64_t rate_;
  std::uint64_t burst_;
  /// Accrued credit in nanoseconds of transmission time, in [0, burst_ns_].
  std::uint64_t credit_ns_ = 0;
  std::uint64_t burst_ns_ = 0;
  /// Clock reading at which credit_ns_ was last brought current. Starts at
  /// the first reservation with a full bucket.
  std::uint64_t last_ns_ = 0;
  bool primed_ = false;
};

}  // namespace bdisk::net

#endif  // BDISK_NET_RATE_LIMITER_H_
