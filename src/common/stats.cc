#include "common/stats.h"

namespace bdisk {

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double m = sum_ / n;
  // Clamp: sumsq/n - m^2 can round to a tiny negative for constant data.
  return std::max(0.0, sumsq_ / n - m * m);
}

void RunningStats::Merge(const RunningStats& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  sumsq_ += other.sumsq_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t Gcd(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    const std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::uint64_t LcmCapped(std::uint64_t a, std::uint64_t b, std::uint64_t cap) {
  BDISK_CHECK(a > 0 && b > 0);
  const std::uint64_t g = Gcd(a, b);
  const std::uint64_t a_div = a / g;
  if (a_div > cap / b) return cap;
  return a_div * b;
}

}  // namespace bdisk
