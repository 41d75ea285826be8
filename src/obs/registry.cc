#include "obs/registry.h"

#include <algorithm>

#include "common/check.h"
#include "obs/json.h"

namespace bdisk::obs {

HistogramMetric::HistogramMetric(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  BDISK_CHECK(!bounds_.empty());
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    BDISK_CHECK(bounds_[i - 1] < bounds_[i]);
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void HistogramMetric::ResetQuiesced() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [n, c] : counters_) {
    if (n == name) return c.get();
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return counters_.back().second.get();
}

HistogramMetric* MetricRegistry::GetHistogram(const std::string& name,
                                              std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [n, h] : histograms_) {
    if (n == name) return h.get();
  }
  histograms_.emplace_back(
      name, std::make_unique<HistogramMetric>(std::move(bounds)));
  return histograms_.back().second.get();
}

void MetricRegistry::WriteJson(JsonWriter* writer) const {
  // Snapshot the name lists under the lock, then read instruments without
  // it (values are atomics; pointers are stable). One globally name-sorted
  // emission regardless of instrument kind.
  struct Entry {
    std::string name;
    const Counter* counter = nullptr;
    const HistogramMetric* histogram = nullptr;
  };
  std::vector<Entry> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [n, c] : counters_) {
      entries.push_back({n, c.get(), nullptr});
    }
    for (const auto& [n, h] : histograms_) {
      entries.push_back({n, nullptr, h.get()});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });

  for (const Entry& e : entries) {
    writer->Key(e.name);
    if (e.counter != nullptr) {
      writer->Uint(e.counter->Value());
    } else {
      writer->BeginObject();
      writer->Key("count");
      writer->Uint(e.histogram->Count());
      writer->Key("sum");
      writer->Double(e.histogram->Sum());
      writer->Key("bounds");
      writer->BeginArray();
      for (const double b : e.histogram->bounds()) writer->Double(b);
      writer->EndArray();
      writer->Key("counts");
      writer->BeginArray();
      for (std::size_t i = 0; i <= e.histogram->bounds().size(); ++i) {
        writer->Uint(e.histogram->CountInBucket(i));
      }
      writer->EndArray();
      writer->EndObject();
    }
  }
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [n, c] : counters_) {
    (void)n;
    c->ResetQuiesced();
  }
  for (auto& [n, h] : histograms_) {
    (void)n;
    h->ResetQuiesced();
  }
}

MetricRegistry& GlobalRegistry() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

std::vector<double> PhaseTimerBoundsUs() {
  std::vector<double> bounds;
  double b = 1.0;
  for (int i = 0; i < 17; ++i) {
    bounds.push_back(b);
    b *= 4.0;
  }
  return bounds;
}

}  // namespace bdisk::obs
