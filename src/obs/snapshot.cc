#include "obs/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/json.h"
#include "obs/registry.h"

namespace bdisk::obs {

const std::vector<std::uint64_t>& SnapshotLatencyBounds() {
  static const std::vector<std::uint64_t>* bounds = [] {
    auto* b = new std::vector<std::uint64_t>();
    for (std::uint64_t bound = 1; bound <= (1ULL << 19); bound <<= 1) {
      b->push_back(bound);
    }
    return b;
  }();
  return *bounds;
}

namespace {

std::size_t LatencyBin(std::uint64_t latency) {
  const auto& bounds = SnapshotLatencyBounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), latency);
  return static_cast<std::size_t>(it - bounds.begin());  // == size() => overflow
}

std::size_t BinCount() { return SnapshotLatencyBounds().size() + 1; }

}  // namespace

Timeline::Timeline(std::uint64_t interval_slots, std::uint64_t horizon)
    : interval_slots_(interval_slots), horizon_(horizon) {
  BDISK_CHECK(interval_slots_ >= 1);
  BDISK_CHECK(horizon_ >= 1);
  // Outcome packs slots into 32 bits; a 2^32-slot horizon is ~4 years of
  // millisecond slots, far past any simulated run.
  BDISK_CHECK(horizon_ <= std::numeric_limits<std::uint32_t>::max());
}

void Timeline::RecordIncomplete(std::uint32_t errors, std::uint32_t corrupt) {
  ++incomplete_;
  incomplete_errors_ += errors;
  incomplete_corrupt_ += corrupt;
}

void Timeline::Merge(Timeline&& other) {
  BDISK_CHECK(interval_slots_ == other.interval_slots_);
  BDISK_CHECK(horizon_ == other.horizon_);
  if (!other.completed_.empty()) {
    merged_.push_back(std::move(other.completed_));
  }
  for (std::vector<Outcome>& chunk : other.merged_) {
    merged_.push_back(std::move(chunk));
  }
  incomplete_ += other.incomplete_;
  incomplete_errors_ += other.incomplete_errors_;
  incomplete_corrupt_ += other.incomplete_corrupt_;
  other = Timeline(interval_slots_, horizon_);
}

namespace {

/// Render-time per-interval aggregates, folded from the outcome log.
struct Bucket {
  RunningStats latency;
  RunningStats stall;
  std::uint64_t completed = 0;
  std::uint64_t missed_deadline = 0;
  std::uint64_t errors_observed = 0;
  std::uint64_t corrupt_detected = 0;
};

/// Upper-bound percentile over cumulative histogram counts: the first
/// bin whose cumulative count reaches q * total. Overflow reports the
/// last bound (documented estimate; exact max lives in max_latency).
std::uint64_t HistQuantile(const std::vector<std::uint64_t>& cumulative,
                           std::uint64_t total, double q) {
  if (total == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total));
  std::uint64_t seen = 0;
  const auto& bounds = SnapshotLatencyBounds();
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    seen += cumulative[i];
    if (seen >= target && seen > 0) {
      return i < bounds.size() ? bounds[i] : bounds.back();
    }
  }
  return bounds.back();
}

}  // namespace

std::string RenderSnapshotStream(const Timeline& timeline,
                                 const MetricRegistry* registry) {
  std::string out;
  const auto& bounds = SnapshotLatencyBounds();

  {
    JsonWriter w;
    w.BeginObject();
    w.Key("type");
    w.String("header");
    w.Key("interval_slots");
    w.Uint(timeline.interval_slots_);
    w.Key("horizon");
    w.Uint(timeline.horizon_);
    w.Key("latency_bounds");
    w.BeginArray();
    for (const std::uint64_t b : bounds) w.Uint(b);
    w.EndArray();
    w.EndObject();
    out += w.str();
    out += '\n';
  }

  // Bucketize the outcome log, chunk by chunk. Every folded quantity is
  // an integer sum, a count, a min or a max — exact in doubles — so the
  // result does not depend on the order of the chunks or of the outcomes
  // within them.
  const std::size_t bins = BinCount();
  const std::size_t bucket_count = timeline.bucket_count();
  std::vector<Bucket> buckets(bucket_count);
  std::vector<std::uint64_t> hist(bucket_count * bins, 0);
  const auto fold = [&](const std::vector<Timeline::Outcome>& log) {
    for (const Timeline::Outcome& o : log) {
      const auto b = static_cast<std::size_t>(o.completion_slot /
                                              timeline.interval_slots_);
      Bucket& bucket = buckets[b];
      ++bucket.completed;
      bucket.latency.Add(static_cast<double>(o.latency));
      bucket.stall.Add(static_cast<double>(o.stall));
      if (o.met_deadline == 0) ++bucket.missed_deadline;
      bucket.errors_observed += o.errors;
      bucket.corrupt_detected += o.corrupt;
      ++hist[b * bins + LatencyBin(o.latency)];
    }
  };
  fold(timeline.completed_);
  for (const auto& chunk : timeline.merged_) fold(chunk);

  // Cumulative walk: exact (integer-valued sums), fixed fold order.
  RunningStats latency;
  RunningStats stall;
  std::uint64_t completed = 0;
  std::uint64_t missed_deadline = 0;
  std::uint64_t errors_observed = 0;
  std::uint64_t corrupt_detected = 0;
  std::vector<std::uint64_t> cumulative_hist(bins, 0);

  for (std::size_t b = 0; b < bucket_count; ++b) {
    const Bucket& bucket = buckets[b];
    latency.Merge(bucket.latency);
    stall.Merge(bucket.stall);
    completed += bucket.completed;
    missed_deadline += bucket.missed_deadline;
    errors_observed += bucket.errors_observed;
    corrupt_detected += bucket.corrupt_detected;
    for (std::size_t i = 0; i < bins; ++i) {
      cumulative_hist[i] += hist[b * bins + i];
    }
    const bool last = b + 1 == bucket_count;
    const std::uint64_t slot = std::min(
        (static_cast<std::uint64_t>(b) + 1) * timeline.interval_slots_,
        timeline.horizon_);

    JsonWriter w;
    w.BeginObject();
    w.Key("type");
    w.String(last ? "final" : "snapshot");
    w.Key("slot");
    w.Uint(slot);
    w.Key("completed");
    w.Uint(completed);
    w.Key("interval_completed");
    w.Uint(bucket.completed);
    w.Key("missed_deadline");
    w.Uint(missed_deadline);
    w.Key("errors_observed");
    w.Uint(errors_observed);
    w.Key("corrupt_detected");
    w.Uint(corrupt_detected);
    w.Key("mean_latency");
    w.Double(latency.mean());
    w.Key("max_latency");
    w.Double(latency.count() > 0 ? latency.max() : 0.0);
    w.Key("mean_stall");
    w.Double(stall.mean());
    w.Key("p50_latency");
    w.Uint(HistQuantile(cumulative_hist, completed, 0.50));
    w.Key("p90_latency");
    w.Uint(HistQuantile(cumulative_hist, completed, 0.90));
    w.Key("p99_latency");
    w.Uint(HistQuantile(cumulative_hist, completed, 0.99));
    if (last) {
      // Only the final line knows the incompletes: an attempt is
      // undecodable iff the whole horizon could not complete it.
      const std::uint64_t attempts = completed + timeline.incomplete_;
      w.Key("incomplete");
      w.Uint(timeline.incomplete_);
      w.Key("attempts");
      w.Uint(attempts);
      w.Key("undecodable_rate");
      w.Double(attempts == 0
                   ? 0.0
                   : static_cast<double>(timeline.incomplete_) /
                         static_cast<double>(attempts));
      w.Key("miss_rate");
      w.Double(attempts == 0
                   ? 0.0
                   : static_cast<double>(missed_deadline +
                                         timeline.incomplete_) /
                         static_cast<double>(attempts));
      w.Key("total_errors_observed");
      w.Uint(errors_observed + timeline.incomplete_errors_);
      w.Key("total_corrupt_detected");
      w.Uint(corrupt_detected + timeline.incomplete_corrupt_);
    }
    w.EndObject();
    out += w.str();
    out += '\n';
  }

  if (registry != nullptr) {
    JsonWriter w;
    w.BeginObject();
    w.Key("type");
    w.String("registry");
    registry->WriteJson(&w);
    w.EndObject();
    out += w.str();
    out += '\n';
  }
  return out;
}

Status WriteSnapshotStream(const Timeline& timeline,
                           const MetricRegistry* registry,
                           const std::string& path, bool append) {
  const std::string text = RenderSnapshotStream(timeline, registry);
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
    return Status::OK();
  }
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open metrics stream '" + path + "'");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0) {
    return Status::Internal("short write to metrics stream '" + path + "'");
  }
  return Status::OK();
}

}  // namespace bdisk::obs
