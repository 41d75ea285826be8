/// \file registry.h
/// \brief Process-wide registry of named counters and histograms.
///
/// The recording paths are built for the GF / simulation hot loops:
/// Counter::Add and Histogram::Record are single relaxed atomic RMWs with
/// no locks, no allocation, and no branches beyond the bucket search —
/// cheap enough to leave compiled into the data plane unconditionally
/// (the fleet bench asserts < 1% wall-clock overhead with the ops plane
/// fully enabled). Registration (name -> instrument lookup) takes a mutex
/// and is expected at setup time only; the returned pointers are stable
/// for the registry's lifetime, so hot code registers once and records
/// through the raw pointer.
///
/// Relaxed ordering is deliberate: instruments are monotonic accumulators
/// read for *reporting*, not for synchronization. A snapshot taken while
/// workers are mid-flight sees each instrument at some point of its own
/// monotonic history (TSan-clean; tests/obs_test.cc hammers this under
/// the ThreadPool), and a snapshot taken after a pool barrier sees exact
/// totals.
///
/// ScopedPhaseTimer is the profiling hook for the coarse phases (encode,
/// decode, event drain, swap decisions, slot dispatch): it records the
/// enclosing scope's wall time into a histogram in microseconds, at
/// batch/shard granularity — never per block or per event — so the clock
/// reads themselves stay off the innermost loops.

#ifndef BDISK_OBS_REGISTRY_H_
#define BDISK_OBS_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bdisk::obs {

class JsonWriter;

/// \brief Monotonic event count. Add is one relaxed fetch_add.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// Zeroes the counter; callers must ensure no concurrent Add.
  void ResetQuiesced() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// \brief Fixed-bucket histogram with inclusive upper bounds plus an
/// implicit overflow bucket. Record is a branchless-ish linear scan over
/// the (small, cache-resident) bounds array and one relaxed fetch_add;
/// sum and count accumulate alongside, so means are exact.
class HistogramMetric {
 public:
  /// \param bounds  strictly increasing inclusive upper bounds; a value v
  ///                lands in the first bucket with v <= bounds[i], or in
  ///                the overflow bucket past the last bound.
  explicit HistogramMetric(std::vector<double> bounds);

  void Record(double v) {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Doubles have no atomic fetch_add pre-C++20 on all targets; a relaxed
    // CAS loop keeps the sum exact without ordering cost.
    double sum = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(sum, sum + v,
                                       std::memory_order_relaxed)) {
    }
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket count (bucket bounds_.size() is the overflow bucket).
  std::uint64_t CountInBucket(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Zeroes all buckets in place (pointer stays valid). Callers must
  /// ensure no concurrent Record — intended for quiesced test/bench use.
  void ResetQuiesced();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// \brief Named-instrument registry. Get* registers on first use (mutex)
/// and returns a stable pointer; recording through the pointer is
/// lock-free. Names are dot-scoped by convention ("gf.encode_bytes",
/// "phase.event_drain_us").
class MetricRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  /// `bounds` applies on first registration; later calls return the
  /// existing instrument regardless.
  HistogramMetric* GetHistogram(const std::string& name,
                                std::vector<double> bounds);

  /// Serializes every instrument as one JSON object value keyed by name,
  /// sorted by name (deterministic member order):
  ///   counters:   "name":N
  ///   histograms: "name":{"count":N,"sum":S,"bounds":[...],"counts":[...]}
  /// Written inside the caller's current container via Key/value pairs.
  void WriteJson(JsonWriter* writer) const;

  /// Resets every registered instrument to zero (tests and benches that
  /// need a clean slate per run; instrument pointers stay valid).
  void Reset();

 private:
  mutable std::mutex mutex_;
  // Deques-by-unique_ptr: pointer stability under growth.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<HistogramMetric>>>
      histograms_;
};

/// \brief The process-wide registry the data plane records into. Always
/// present; near-zero cost when nothing reads it.
MetricRegistry& GlobalRegistry();

/// Default bounds for phase timers: microseconds, powers of 4 from 1 us
/// to ~4.3 s plus overflow — wide dynamic range, 17 buckets.
std::vector<double> PhaseTimerBoundsUs();

/// \brief Records the enclosing scope's wall time (microseconds) into a
/// histogram on destruction. Use at batch/shard granularity only.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(HistogramMetric* histogram)
      : histogram_(histogram),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhaseTimer() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Record(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  HistogramMetric* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bdisk::obs

#endif  // BDISK_OBS_REGISTRY_H_
