#include "net/rate_limiter.h"

#include <time.h>

#include <algorithm>

#include "common/check.h"

namespace bdisk::net {

namespace {

constexpr std::uint64_t kNsPerSec = 1'000'000'000ull;
constexpr std::uint64_t kDefaultBurstFloorBytes = 64 * 1024;

}  // namespace

TokenBucket::TokenBucket(std::uint64_t rate_bytes_per_sec,
                         std::uint64_t burst_bytes)
    : rate_(rate_bytes_per_sec), burst_(burst_bytes) {
  BDISK_CHECK(rate_ > 0);  // A zero-rate bucket can never grant a send.
  if (burst_ == 0) {
    burst_ = std::max(rate_ / 64, kDefaultBurstFloorBytes);
  }
  burst_ns_ = CostNs(burst_);
}

std::uint64_t TokenBucket::CostNs(std::uint64_t bytes) const {
  const unsigned __int128 ns =
      static_cast<unsigned __int128>(bytes) * kNsPerSec / rate_;
  return static_cast<std::uint64_t>(ns);
}

std::uint64_t TokenBucket::ReserveAt(std::uint64_t now_ns,
                                     std::uint64_t bytes) {
  if (!primed_) {
    // First reservation: the bucket starts full, earning from `now_ns`.
    primed_ = true;
    last_ns_ = now_ns;
    credit_ns_ = burst_ns_;
  }
  if (now_ns > last_ns_) {
    credit_ns_ = std::min(burst_ns_, credit_ns_ + (now_ns - last_ns_));
    last_ns_ = now_ns;
  }
  const std::uint64_t cost = CostNs(bytes);
  std::uint64_t send_at = last_ns_;
  if (cost > credit_ns_) {
    // Not enough credit: the send waits for the bucket to earn the rest.
    send_at = last_ns_ + (cost - credit_ns_);
    credit_ns_ = 0;
    last_ns_ = send_at;
  } else {
    credit_ns_ -= cost;
  }
  return send_at;
}

void TokenBucket::Throttle(std::uint64_t bytes) {
  const std::uint64_t now = MonotonicNowNs();
  const std::uint64_t send_at = ReserveAt(now, bytes);
  if (send_at <= now) return;
  const std::uint64_t wait = send_at - now;
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(wait / kNsPerSec);
  ts.tv_nsec = static_cast<long>(wait % kNsPerSec);
  while (nanosleep(&ts, &ts) != 0) {
    // Interrupted: ts holds the remaining time.
  }
}

std::uint64_t TokenBucket::MonotonicNowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * kNsPerSec +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace bdisk::net
