/// \file snapshot.h
/// \brief Periodic metric snapshots of a simulation run as JSON lines.
///
/// A running simulation used to be a black box until it exited. The
/// snapshot plane fixes that in two pieces:
///
///  * **Timeline** — the collection side. A run appends every retrieval
///    outcome to a compact log (24 bytes per outcome, sequential writes —
///    measured far cheaper than bucketing in place, which cost ~9% of the
///    100k-client fleet run in zeroing, cache-missing, and merging
///    megabytes of bucket arrays). Bucketization into fixed sim-clock
///    intervals (`interval_slots` wide, keyed by *completion slot*)
///    happens once at render time, off the hot path. A shard-local
///    timeline merges by handing its log over as one more chunk, with no
///    copy; rendering folds every chunk. All aggregated quantities are
///    integer sums, counts, minima and maxima — exact in doubles and
///    independent of fold order — so the rendered stream is
///    byte-identical at any thread count and across the slot and event
///    engines. The clock is the *simulated* clock, never wall time, which
///    is what makes snapshots reproducible.
///
///  * **RenderSnapshotStream / WriteSnapshotStream** — the emission side.
///    One JSON object per line: a header (geometry + histogram bounds),
///    one cumulative snapshot per interval boundary ("metrics as of slot
///    T over retrievals completed before T"), a final line that also
///    carries the end-of-horizon incompletes (undecodable rate is only
///    knowable once the horizon ends), and — when a registry is supplied —
///    a registry dump with the process-wide counters and phase timers
///    (wall-clock profiling; deliberately excluded from the deterministic
///    contract). `bdisk_top` tails this stream.
///
/// Recording cost is one 24-byte append to shard-local storage — the
/// fleet bench asserts the whole plane at 1-slot granularity costs < 1%
/// wall clock.

#ifndef BDISK_OBS_SNAPSHOT_H_
#define BDISK_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/status.h"

namespace bdisk::obs {

class MetricRegistry;

/// Inclusive upper bounds of the snapshot latency histogram, in slots:
/// powers of two from 1 to 2^19, plus an implicit overflow bucket.
const std::vector<std::uint64_t>& SnapshotLatencyBounds();

/// \brief Outcome log of one run, rendered as sim-clock snapshots.
/// Shard-local recording (plain appends), copy-free Merge, deterministic
/// rendering.
class Timeline {
 public:
  /// \param interval_slots  snapshot interval (>= 1).
  /// \param horizon         run horizon in slots (>= 1, < 2^32); outcomes
  ///                        complete at slots < horizon.
  Timeline(std::uint64_t interval_slots, std::uint64_t horizon);

  std::uint64_t interval_slots() const { return interval_slots_; }
  std::uint64_t horizon() const { return horizon_; }
  std::size_t bucket_count() const {
    return static_cast<std::size_t>(
        (horizon_ + interval_slots_ - 1) / interval_slots_);
  }

  /// Preallocates room for `outcomes` completed records (engines know the
  /// shard's client count up front).
  void Reserve(std::size_t outcomes) { completed_.reserve(outcomes); }

  /// Records a completed retrieval (one append; bucketed at render time).
  /// Inline: engines call it once per retrieval.
  void RecordCompleted(std::uint64_t completion_slot, std::uint64_t latency,
                       std::uint64_t stall, bool met_deadline,
                       std::uint32_t errors, std::uint32_t corrupt) {
    BDISK_DCHECK(completion_slot < horizon_);
    BDISK_DCHECK(latency <= horizon_);
    BDISK_DCHECK(stall <= horizon_);
    completed_.push_back(Outcome{static_cast<std::uint32_t>(completion_slot),
                                 static_cast<std::uint32_t>(latency),
                                 static_cast<std::uint32_t>(stall), errors,
                                 corrupt, met_deadline ? std::uint8_t{1}
                                                       : std::uint8_t{0}});
  }

  /// Records a retrieval that never completed within the horizon (only
  /// knowable at the end, so it lands in the final snapshot).
  void RecordIncomplete(std::uint32_t errors, std::uint32_t corrupt);

  /// Takes over `other`'s logs as chunks of this one, without copying an
  /// outcome; `other` must have identical geometry and is emptied. The
  /// rendered stream does not depend on merge order (see file comment).
  void Merge(Timeline&& other);

 private:
  friend std::string RenderSnapshotStream(const Timeline& timeline,
                                          const MetricRegistry* registry);

  /// One completed retrieval, 24 bytes. All fields fit 32 bits because
  /// the horizon does (checked at construction).
  struct Outcome {
    std::uint32_t completion_slot = 0;
    std::uint32_t latency = 0;
    std::uint32_t stall = 0;
    std::uint32_t errors = 0;
    std::uint32_t corrupt = 0;
    std::uint8_t met_deadline = 0;
  };

  std::uint64_t interval_slots_;
  std::uint64_t horizon_;
  /// This timeline's own appends.
  std::vector<Outcome> completed_;
  /// Logs taken over by Merge, folded with completed_ at render time.
  std::vector<std::vector<Outcome>> merged_;
  /// End-of-horizon incompletes (never bucketed mid-run).
  std::uint64_t incomplete_ = 0;
  std::uint64_t incomplete_errors_ = 0;
  std::uint64_t incomplete_corrupt_ = 0;
};

/// \brief Renders the full snapshot stream (see file comment for the line
/// taxonomy). Deterministic given the timeline; the optional registry
/// appends one non-deterministic "registry" line.
std::string RenderSnapshotStream(const Timeline& timeline,
                                 const MetricRegistry* registry);

/// \brief Renders and writes the stream to `path` ("-" = stdout). With
/// `append`, adds to an existing file (multi-run experiments emit one
/// stream per run into the same file).
Status WriteSnapshotStream(const Timeline& timeline,
                           const MetricRegistry* registry,
                           const std::string& path, bool append = false);

}  // namespace bdisk::obs

#endif  // BDISK_OBS_SNAPSHOT_H_
