// Trace-plane suite (obs/trace.h + sim/trace_walk.h): span capture,
// flight recording, and Chrome trace-event export.
//
// The load-bearing claims pinned here:
//
//  * the rendered Chrome trace is byte-identical across the slot and
//    event engines, serial and sharded, at any thread count — spans are
//    built post hoc from (schedule, fault trace, request), so the engines
//    cannot disagree structurally, and shard sinks merge in shard order;
//  * counter sampling selects exactly the requests with
//    g % sample_every == 0, independent of execution order;
//  * anomaly triggers (deadline miss, undecodable, threshold stall) force
//    a span with sampling off, and each span's causal chain accounts for
//    its own summary numbers event by event: every lost/corrupt slot of a
//    stall victim lies inside the span, errors_observed equals the faulty
//    transmissions heard, and an undecodable span ends with "incomplete";
//  * flight-recorder retention (last K spans dumped ahead of each
//    anomaly) survives sharded capture byte-identically;
//  * RunAdaptiveExperiment's adaptive sink carries one swap-decision span
//    per controller interval, with `completed` matching the swap count;
//  * the rendered document parses as JSON with the documented envelope.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "adaptive/adaptive_loop.h"
#include "bdisk/flat_builder.h"
#include "faults/channel_model.h"
#include "faults/channel_spec.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "sim/simulation.h"

namespace bdisk::obs {
namespace {

unsigned PoolWidth() {
  const char* env = std::getenv("BDISK_EQUIV_THREADS");
  if (env == nullptr) return 3;
  const unsigned threads =
      static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  return threads == 0 ? 3 : threads;
}

broadcast::BroadcastProgram BuildTestProgram(
    const std::vector<std::uint64_t>& latencies = {}) {
  std::vector<broadcast::FlatFileSpec> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back({"F" + std::to_string(i), 4, 8, latencies});
  }
  auto p = broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kSpread);
  EXPECT_TRUE(p.ok()) << p.status();
  return *p;
}

constexpr std::uint64_t kHorizon = 2048;
constexpr std::uint64_t kRequestsPerFile = 64;

sim::WorkloadConfig TestWorkload() {
  sim::WorkloadConfig config;
  config.requests_per_file = kRequestsPerFile;
  config.seed = 99;
  return config;
}

/// Runs the workload through the chosen engine and returns the captured
/// sink (by value; TraceSink is move-only through Merge but copyable).
TraceSink CaptureFor(const sim::Simulator& simulator, bool evented,
                     runtime::ThreadPool* pool, const TraceOptions& options,
                     const sim::WorkloadConfig& config) {
  TraceSink sink(options);
  auto metrics = evented
                     ? simulator.RunWorkloadEvented(config, pool, nullptr,
                                                    &sink)
                     : simulator.RunWorkload(config, pool, nullptr, &sink);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return sink;
}

std::string RenderFor(const sim::Simulator& simulator, bool evented,
                      runtime::ThreadPool* pool,
                      const TraceOptions& options) {
  const TraceSink sink =
      CaptureFor(simulator, evented, pool, options, TestWorkload());
  return RenderChromeTrace({{&sink, "workload"}});
}

// Counts `kind` events in the span.
std::uint64_t CountEvents(const TraceSpan& span, TraceEventKind kind) {
  std::uint64_t n = 0;
  for (const TraceEvent& e : span.events) n += e.kind == kind ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Byte-identity across engines and thread counts.
// ---------------------------------------------------------------------------

TEST(TraceTest, ChromeTraceByteIdenticalAcrossEnginesAndPools) {
  const auto program = BuildTestProgram();
  auto channel = faults::ParseChannelSpec("gilbert:pgb=0.05,pbg=0.2,seed=7");
  ASSERT_TRUE(channel.ok()) << channel.status();
  const sim::Simulator simulator(program, **channel, kHorizon);

  TraceOptions options;
  options.sample_every = 8;
  options.stall_threshold = 4;

  const std::string slot_serial =
      RenderFor(simulator, false, nullptr, options);
  ASSERT_FALSE(slot_serial.empty());
  EXPECT_EQ(slot_serial, RenderFor(simulator, true, nullptr, options))
      << "event-serial trace differs from slot-serial";
  runtime::ThreadPool pool(PoolWidth());
  EXPECT_EQ(slot_serial, RenderFor(simulator, false, &pool, options))
      << "slot-pooled trace differs from slot-serial";
  EXPECT_EQ(slot_serial, RenderFor(simulator, true, &pool, options))
      << "event-pooled (" << PoolWidth()
      << " threads) trace differs from slot-serial";
}

// ---------------------------------------------------------------------------
// Counter sampling: the traced set is exactly the multiples.
// ---------------------------------------------------------------------------

TEST(TraceTest, SampledSetIsExactlyTheCounterMultiples) {
  const auto program = BuildTestProgram();
  auto channel = faults::ParseChannelSpec("lossless");
  ASSERT_TRUE(channel.ok()) << channel.status();
  const sim::Simulator simulator(program, **channel, kHorizon);

  TraceOptions options;
  options.sample_every = 5;
  options.trace_anomalies = false;

  const TraceSink sink =
      CaptureFor(simulator, false, nullptr, options, TestWorkload());
  const std::uint64_t total = 4 * kRequestsPerFile;
  ASSERT_EQ(sink.spans().size(), (total + 4) / 5);
  std::uint64_t expected_id = 0;
  for (const TraceSpan& span : sink.spans()) {
    EXPECT_EQ(span.request_id, expected_id);  // Ascending, every 5th.
    EXPECT_EQ(span.trigger, kTraceSampled);
    EXPECT_EQ(span.kind, TraceSpanKind::kRetrieval);
    expected_id += 5;
  }
  EXPECT_EQ(sink.recorded_count(), sink.spans().size());
  EXPECT_EQ(sink.dropped_count(), 0u);
}

// ---------------------------------------------------------------------------
// Anomaly triggers and per-span causal accounting.
// ---------------------------------------------------------------------------

TEST(TraceTest, UndecodablesAlwaysTracedAndEndIncomplete) {
  const auto program = BuildTestProgram();
  // Every slot from 300 on is lost: late starters cannot decode.
  auto channel = faults::ParseChannelSpec("outage:period=600,start=300,len=300");
  ASSERT_TRUE(channel.ok()) << channel.status();
  const sim::Simulator simulator(program, **channel, 600);

  TraceOptions options;  // Sampling off; anomalies on by default.
  TraceSink sink(options);
  auto metrics = simulator.RunWorkload(TestWorkload(), nullptr, nullptr,
                                       &sink);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  std::uint64_t undecodable_spans = 0;
  for (const TraceSpan& span : sink.spans()) {
    EXPECT_EQ(span.trigger & kTraceSampled, 0);  // Sampling is off.
    EXPECT_NE(span.trigger, 0);
    if (span.completed) continue;
    ++undecodable_spans;
    EXPECT_NE(span.trigger & kTraceUndecodable, 0);
    EXPECT_EQ(span.latency, 0u);
    EXPECT_EQ(span.end_slot, simulator.horizon());
    ASSERT_FALSE(span.events.empty());
    EXPECT_EQ(span.events.front().kind, TraceEventKind::kArrival);
    EXPECT_EQ(span.events.back().kind, TraceEventKind::kIncomplete);
    EXPECT_EQ(CountEvents(span, TraceEventKind::kDecodeStart), 0u);
  }
  // The outage covers half the horizon; the workload must have victims,
  // and every one of them must have produced a span.
  std::uint64_t incomplete = 0;
  for (const auto& f : metrics->per_file) incomplete += f.incomplete;
  EXPECT_GT(incomplete, 0u);
  EXPECT_EQ(undecodable_spans, incomplete);
}

TEST(TraceTest, StallVictimsAccountEveryFaultInsideTheSpan) {
  const auto program = BuildTestProgram();
  auto channel = faults::ParseChannelSpec("gilbert:pgb=0.05,pbg=0.2,seed=7");
  ASSERT_TRUE(channel.ok()) << channel.status();
  const sim::Simulator simulator(program, **channel, kHorizon);

  TraceOptions options;
  options.stall_threshold = 1;  // Trace every stalled completion.

  const TraceSink sink =
      CaptureFor(simulator, false, nullptr, options, TestWorkload());
  std::uint64_t stalled = 0;
  for (const TraceSpan& span : sink.spans()) {
    const std::uint64_t faults = CountEvents(span, TraceEventKind::kLost) +
                                 CountEvents(span, TraceEventKind::kCorrupt);
    EXPECT_EQ(faults, span.errors_observed)
        << "request " << span.request_id
        << ": event chain disagrees with the fault summary";
    EXPECT_EQ(CountEvents(span, TraceEventKind::kCorrupt),
              span.corrupt_detected);
    for (const TraceEvent& e : span.events) {
      EXPECT_GE(e.slot, span.start_slot) << "request " << span.request_id;
      EXPECT_LT(e.slot, span.end_slot) << "request " << span.request_id;
    }
    if (!span.completed || span.stall_slots == 0) continue;
    ++stalled;
    // A stall is by definition fault-induced: the chain must show the
    // lost period(s) that pushed completion past the lossless baseline.
    EXPECT_NE(span.trigger & kTraceStall, 0);
    EXPECT_GT(span.errors_observed, 0u);
    EXPECT_EQ(CountEvents(span, TraceEventKind::kDecodeStart), 1u);
    EXPECT_EQ(span.events.back().kind, TraceEventKind::kDecodeStart);
  }
  EXPECT_GT(stalled, 0u) << "channel produced no stalls to verify";
}

TEST(TraceTest, DeadlineMissesAlwaysTraced) {
  // Tight per-file deadline: with bursty loss, some completions miss it.
  const auto program = BuildTestProgram({40});
  auto channel = faults::ParseChannelSpec("gilbert:pgb=0.08,pbg=0.15,seed=3");
  ASSERT_TRUE(channel.ok()) << channel.status();
  const sim::Simulator simulator(program, **channel, kHorizon);

  TraceOptions options;  // Sampling off; anomalies on.
  TraceSink sink(options);
  auto metrics = simulator.RunWorkload(TestWorkload(), nullptr, nullptr,
                                       &sink);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  std::uint64_t missed_spans = 0;
  for (const TraceSpan& span : sink.spans()) {
    if (span.met_deadline) continue;
    EXPECT_NE(span.trigger & kTraceDeadlineMiss, 0);
    EXPECT_EQ(span.deadline_slots, 40u);
    // FileMetrics::missed_deadline counts completed-but-late only;
    // incomplete victims are traced too but tallied as undecodable.
    if (span.completed) ++missed_spans;
  }
  std::uint64_t missed = 0;
  for (const auto& f : metrics->per_file) missed += f.missed_deadline;
  EXPECT_GT(missed, 0u) << "workload produced no deadline misses to verify";
  EXPECT_EQ(missed_spans, missed);
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

bool IsAnomaly(const TraceSpan& span) {
  return (span.trigger & ~kTraceSampled) != 0;
}

TEST(TraceTest, FlightRecorderDumpsAtMostDepthSpansBeforeEachAnomaly) {
  const auto program = BuildTestProgram();
  auto channel = faults::ParseChannelSpec("gilbert:pgb=0.05,pbg=0.2,seed=7");
  ASSERT_TRUE(channel.ok()) << channel.status();
  const sim::Simulator simulator(program, **channel, kHorizon);

  constexpr std::uint64_t kDepth = 3;
  TraceOptions options;
  options.sample_every = 1;  // Offer every span to the recorder.
  options.stall_threshold = 8;
  options.flight_recorder_depth = kDepth;

  const TraceSink sink =
      CaptureFor(simulator, false, nullptr, options, TestWorkload());
  ASSERT_FALSE(sink.spans().empty());
  // Every request was offered; retention dropped the quiet majority.
  EXPECT_EQ(sink.recorded_count(), 4 * kRequestsPerFile);
  EXPECT_GT(sink.dropped_count(), 0u);
  EXPECT_LT(sink.spans().size(), sink.recorded_count());

  // The retained log is a sequence of (<= kDepth quiet spans, anomaly)
  // groups: runs of non-anomaly spans never exceed the ring depth and are
  // always terminated by the anomaly that dumped them.
  std::uint64_t run = 0;
  for (const TraceSpan& span : sink.spans()) {
    if (IsAnomaly(span)) {
      run = 0;
    } else {
      ++run;
      EXPECT_LE(run, kDepth);
    }
  }
  EXPECT_TRUE(IsAnomaly(sink.spans().back()))
      << "retained log must end with an anomaly (final ring is discarded)";

  // Sharded capture replays to the identical retained log.
  runtime::ThreadPool pool(PoolWidth());
  const TraceSink pooled =
      CaptureFor(simulator, false, &pool, options, TestWorkload());
  EXPECT_EQ(RenderChromeTrace({{&sink, "workload"}}),
            RenderChromeTrace({{&pooled, "workload"}}))
      << "flight-recorder retention diverged under sharding";
  EXPECT_EQ(sink.dropped_count(), pooled.dropped_count());
}

// ---------------------------------------------------------------------------
// Adaptive swap-decision spans.
// ---------------------------------------------------------------------------

TEST(TraceTest, AdaptiveExperimentEmitsSwapDecisionSpans) {
  std::vector<broadcast::FlatFileSpec> files;
  for (int i = 0; i < 6; ++i) {
    files.push_back({"f" + std::to_string(i), 2, 4, {}});
  }
  adaptive::DriftingZipfWorkload workload;
  workload.requests = 3000;
  workload.arrival_horizon = 12000;
  workload.flip_slot = 6000;
  workload.seed = 5;

  TraceOptions options;
  options.sample_every = 64;
  auto result = adaptive::RunAdaptiveExperiment(
      files, workload, /*interval_slots=*/1500,
      faults::BernoulliChannel(0.02, 11), nullptr, nullptr,
      /*snapshot_interval_slots=*/0, &options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result->adaptive_trace, nullptr);
  ASSERT_NE(result->static_trace, nullptr);

  std::uint64_t decisions = 0;
  std::uint64_t swapped = 0;
  for (const TraceSpan& span : result->adaptive_trace->spans()) {
    if (span.kind != TraceSpanKind::kSwapDecision) continue;
    ++decisions;
    EXPECT_EQ(span.trigger, kTraceSwap);
    EXPECT_EQ(span.file_name, "controller");
    EXPECT_EQ(span.end_slot - span.start_slot, 1500u);
    if (span.completed) {
      ++swapped;
      // A swap decision that fired carries the epoch boundary it created.
      EXPECT_EQ(CountEvents(span, TraceEventKind::kEpoch), 1u);
    }
  }
  EXPECT_EQ(decisions, workload.arrival_horizon / 1500);
  EXPECT_EQ(swapped, result->swaps);
  EXPECT_GT(result->swaps, 0u) << "drift produced no swaps to trace";
  for (const TraceSpan& span : result->static_trace->spans()) {
    EXPECT_EQ(span.kind, TraceSpanKind::kRetrieval)
        << "static replay must not carry controller spans";
  }
}

// ---------------------------------------------------------------------------
// Chrome export envelope.
// ---------------------------------------------------------------------------

TEST(TraceTest, RenderedTraceIsWellFormedChromeJson) {
  const auto program = BuildTestProgram();
  auto channel = faults::ParseChannelSpec("bernoulli:p=0.05,seed=11");
  ASSERT_TRUE(channel.ok()) << channel.status();
  const sim::Simulator simulator(program, **channel, kHorizon);

  TraceOptions options;
  options.sample_every = 16;
  const TraceSink sink =
      CaptureFor(simulator, false, nullptr, options, TestWorkload());
  const std::string doc = RenderChromeTrace(
      {{&sink, "workload"}}, {{"engine", "slot"}, {"channel", "bernoulli"}});

  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GT(events->array.size(), sink.spans().size())
      << "expected one X event per span plus instants and metadata";
  const JsonValue* other = parsed->Find("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* clock = other->Find("clock");
  ASSERT_NE(clock, nullptr);
  EXPECT_EQ(clock->string_value, "sim-slots-as-us");
  const JsonValue* engine = other->Find("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->string_value, "slot");

  // Every span surfaces as a complete event on its request lane with the
  // sim-clock geometry.
  std::set<std::uint64_t> lanes;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string_value != "X") continue;
    const JsonValue* tid = event.Find("tid");
    ASSERT_NE(tid, nullptr);
    lanes.insert(static_cast<std::uint64_t>(tid->number));
  }
  EXPECT_EQ(lanes.size(), sink.spans().size());
  for (const TraceSpan& span : sink.spans()) {
    EXPECT_EQ(lanes.count(span.request_id), 1u);
  }
}

TEST(TraceTest, TriggerNamesAndEventNamesAreStable) {
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kArrival), "arrival");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kDecodeStart), "decode");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kIncomplete), "incomplete");
  EXPECT_EQ(TraceTriggerName(0), "none");
  EXPECT_EQ(TraceTriggerName(kTraceSampled), "sampled");
  EXPECT_EQ(TraceTriggerName(kTraceSampled | kTraceStall), "sampled+stall");
  EXPECT_EQ(TraceTriggerName(kTraceDeadlineMiss | kTraceUndecodable),
            "deadline_miss+undecodable");
}

}  // namespace
}  // namespace bdisk::obs
