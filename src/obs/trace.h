/// \file trace.h
/// \brief Per-request causal tracing: span capture, flight recording, and
/// Chrome trace-event export.
///
/// The snapshot plane (obs/snapshot.h) answers "how is the run doing in
/// aggregate"; the trace plane answers "what happened to *this* request".
/// A traced retrieval carries its full causal chain — arrival, every
/// transmission of its file it heard (received, lost, or corrupt), the
/// epoch hot-swaps it crossed, decode start, completion or incomplete —
/// as a TraceSpan, which Chrome's `chrome://tracing` / Perfetto renders
/// as one timeline lane per request.
///
/// **Determinism contract.** Spans are built *post hoc*: a retrieval is a
/// pure function of (schedule, fault trace, request), so the causal chain
/// is reconstructed after the outcome is known, by the single shared
/// walker in sim/trace_walk.h. The hot path pays only a trigger check per
/// request; cost scales with the number of *traced* requests. Sampling is
/// counter-based — request `g` is sampled iff `g % sample_every == 0` —
/// so the sampled set is a pure function of the global request index:
/// identical for any shard count, thread count, or engine. Timestamps are
/// the *simulated* clock (slots), never wall time. Consequently the
/// rendered trace is byte-identical across the slot and event engines and
/// at any thread count (tests/trace_test.cc pins this).
///
/// **Anomaly triggers.** Anomalies are only knowable at the end of a
/// retrieval — which is exactly when post-hoc spans are built, so "always
/// trace anomalies" costs nothing extra: a deadline miss, an undecodable
/// (incomplete) retrieval, or a reconstruction stall at or past the
/// configured threshold forces a span regardless of sampling.
///
/// **Flight recorder.** With `flight_recorder_depth = K > 0` the sink
/// keeps only the last K non-anomaly spans in a ring; when an anomaly
/// trigger fires, the ring (the anomaly's causal neighborhood) is dumped
/// to the retained log together with the anomaly span, and the ring
/// restarts. Spans still in the ring when the run ends are discarded —
/// nothing anomalous happened after them. Shard sinks merge by replaying
/// the other shard's surviving spans through the same automaton, which
/// provably reproduces the serial eviction/dump sequence, so flight
/// recording inherits the byte-identity contract.
#ifndef BDISK_OBS_TRACE_H_
#define BDISK_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace bdisk::obs {

/// \brief One step of a traced retrieval's causal chain.
enum class TraceEventKind : std::uint8_t {
  kArrival = 0,      ///< Client tunes in (span start).
  kBlock,            ///< Clean transmission heard (block, distinct after).
  kLost,             ///< Transmission lost on the channel.
  kCorrupt,          ///< Transmission corrupted and discarded by checksum.
  kEpoch,            ///< Epoch hot-swap boundary crossed (block = epoch).
  kDecodeStart,      ///< m-th distinct block collected; decode can begin.
  kIncomplete,       ///< Horizon exhausted before m distinct blocks.
};

/// Stable lowercase name of `kind` ("arrival", "block", ...).
const char* TraceEventKindName(TraceEventKind kind);

/// \brief One causal event at a simulated slot. `block` is the rotated
/// block index for kBlock/kLost/kCorrupt and the epoch index for kEpoch;
/// `distinct` is the client's distinct-block count after the event.
struct TraceEvent {
  std::uint64_t slot = 0;
  TraceEventKind kind = TraceEventKind::kArrival;
  std::uint32_t block = 0;
  std::uint32_t distinct = 0;
};

/// Why a span was captured (bitmask; anomaly = any bit but kSampled).
inline constexpr std::uint8_t kTraceSampled = 1;       ///< Counter sampling.
inline constexpr std::uint8_t kTraceDeadlineMiss = 2;  ///< Missed deadline.
inline constexpr std::uint8_t kTraceUndecodable = 4;   ///< Never completed.
inline constexpr std::uint8_t kTraceStall = 8;         ///< Stall >= threshold.
inline constexpr std::uint8_t kTraceSwap = 16;         ///< Controller span.

/// Human-readable trigger bitmask, e.g. "sampled+stall".
std::string TraceTriggerName(std::uint8_t trigger);

/// \brief What a span is about.
enum class TraceSpanKind : std::uint8_t {
  kRetrieval = 0,    ///< One client retrieval.
  kSwapDecision,     ///< One adaptive-controller interval decision.
};

/// \brief One traced span: metadata plus the causal event chain.
struct TraceSpan {
  TraceSpanKind kind = TraceSpanKind::kRetrieval;
  /// Global request index (retrievals) or interval index (swap decisions).
  std::uint64_t request_id = 0;
  std::uint32_t file = 0;
  std::string file_name;
  std::uint64_t start_slot = 0;
  /// Exclusive end: completion slot + 1, or the horizon when incomplete
  /// (for swap decisions, the interval end).
  std::uint64_t end_slot = 0;
  std::uint64_t deadline_slots = 0;
  std::uint64_t latency = 0;
  std::uint64_t stall_slots = 0;
  std::uint32_t errors_observed = 0;
  std::uint32_t corrupt_detected = 0;
  /// Retrievals: collected m distinct blocks. Swap decisions: swapped.
  bool completed = false;
  bool met_deadline = true;
  std::uint8_t trigger = 0;
  std::vector<TraceEvent> events;
};

/// \brief Capture policy. Tracing is active when any trigger can fire.
struct TraceOptions {
  /// Sample request g iff g % sample_every == 0 (0 = sampling off).
  std::uint64_t sample_every = 0;
  /// Force-trace deadline misses, undecodables, and threshold stalls.
  bool trace_anomalies = true;
  /// Stall trigger fires at stall_slots >= this (0 = stall trigger off).
  std::uint64_t stall_threshold = 0;
  /// Flight-recorder ring depth K (0 = retain every captured span).
  std::uint64_t flight_recorder_depth = 0;
};

/// \brief Append-only span log with optional flight recording. One sink
/// per shard; Merge in shard order reproduces the serial capture exactly.
class TraceSink {
 public:
  TraceSink() = default;
  explicit TraceSink(const TraceOptions& options) : options_(options) {}

  const TraceOptions& options() const { return options_; }

  /// Trigger bitmask for a finished retrieval (0 = do not trace). A pure
  /// function of the global request index and the outcome, so the traced
  /// set is shard-, thread-, and engine-invariant. Inline: engines call it
  /// once per retrieval.
  std::uint8_t TriggerFor(std::uint64_t request_id, bool completed,
                          bool met_deadline,
                          std::uint64_t stall_slots) const {
    std::uint8_t trigger = 0;
    if (options_.sample_every != 0 &&
        request_id % options_.sample_every == 0) {
      trigger |= kTraceSampled;
    }
    if (options_.trace_anomalies) {
      if (!completed) trigger |= kTraceUndecodable;
      if (!met_deadline) trigger |= kTraceDeadlineMiss;
      if (options_.stall_threshold != 0 &&
          stall_slots >= options_.stall_threshold) {
        trigger |= kTraceStall;
      }
    }
    return trigger;
  }

  /// Captures one span (span.trigger must be nonzero). In flight-recorder
  /// mode an anomaly span dumps the ring ahead of itself; a non-anomaly
  /// span enters the ring, evicting the oldest past depth K.
  void Record(TraceSpan span);

  /// Folds `other` (the next shard in global order) into this sink by
  /// replaying its surviving spans through the ring automaton. A span
  /// evicted inside `other` would have been evicted by the serial run too
  /// (eviction depends only on a span's successors), so the merged state
  /// is byte-identical to the serial capture. `other` is emptied.
  void Merge(TraceSink&& other);

  /// Spans that survived retention, in capture order. In flight-recorder
  /// mode: every dumped ring followed by its anomaly span; the final
  /// ring's undumped spans are not included.
  const std::vector<TraceSpan>& spans() const { return retained_; }

  /// Spans Record()ed, including ring evictions.
  std::uint64_t recorded_count() const { return recorded_; }
  /// Spans evicted from the flight ring without ever being dumped.
  std::uint64_t dropped_count() const { return dropped_; }

 private:
  TraceOptions options_;
  std::vector<TraceSpan> retained_;
  /// Flight ring, oldest first (only used when flight_recorder_depth > 0).
  std::deque<TraceSpan> ring_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// \brief One lane group of a Chrome trace: a sink plus its process label
/// (e.g. "channel replay", "adaptive replay").
struct TraceTrack {
  const TraceSink* sink = nullptr;
  std::string name;
};

/// \brief Renders tracks as one Chrome trace-event JSON document (one
/// event per line inside "traceEvents"). Mapping:
///
///   * track t's retrieval spans: pid 2t, swap-decision spans: pid 2t+1
///     (labeled via process_name metadata);
///   * each span is a complete ("X") event with tid = request_id,
///     ts = start slot, dur = end - start (sim slots rendered as
///     microseconds), and the span metadata in "args";
///   * each causal event is an instant ("i", thread scope) on the same
///     lane, with block/distinct/epoch detail in "args".
///
/// `metadata` key/value pairs land in "otherData". Deterministic given
/// the tracks: byte-identical across engines and thread counts.
std::string RenderChromeTrace(
    const std::vector<TraceTrack>& tracks,
    const std::vector<std::pair<std::string, std::string>>& metadata = {});

/// \brief Renders and writes the trace to `path` ("-" = stdout).
Status WriteChromeTrace(
    const std::vector<TraceTrack>& tracks,
    const std::vector<std::pair<std::string, std::string>>& metadata,
    const std::string& path);

}  // namespace bdisk::obs

#endif  // BDISK_OBS_TRACE_H_
