// Ops-plane suite: canonical JSON writer/parser, the metric registry's
// concurrency contract, histogram bucket edges, and snapshot-stream
// determinism.
//
// The load-bearing claims pinned here:
//
//  * the writer's canonical form (%.17g doubles, \u00XX control escapes,
//    lazy structural commas + scheduled layout whitespace) round-trips
//    through the parser byte-identically — the property bench_compare and
//    the scenario goldens rely on;
//  * registry recording is exact under a ThreadPool: after the pool
//    barrier, counters and histograms hold the precise totals (this file
//    is on the TSan CI leg, so the relaxed-atomic paths are also proven
//    race-free);
//  * HistogramMetric bounds are inclusive upper bounds with an overflow
//    bucket — the edge cases are pinned value-by-value;
//  * RenderSnapshotStream is byte-identical across the slot and event
//    engines and across thread counts, and its final line is consistent
//    at any snapshot interval.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bdisk/flat_builder.h"
#include "faults/channel_spec.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/stream_tail.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "sim/simulation.h"

namespace bdisk::obs {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter canonical form.
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, CompactObjectWithAutomaticCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.Uint(1);
  w.Key("b");
  w.String("x");
  w.Key("c");
  w.BeginArray();
  w.Uint(1);
  w.Uint(2);
  w.BeginObject();
  w.EndObject();
  w.EndArray();
  w.Key("d");
  w.Bool(true);
  w.Key("e");
  w.Null();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":\"x\",\"c\":[1,2,{}],\"d\":true,\"e\":null}");
}

TEST(JsonWriterTest, CanonicalDoubles) {
  std::string out;
  AppendCanonicalDouble(&out, 0.1);
  EXPECT_EQ(out, "0.10000000000000001");  // %.17g: lossless, canonical.
  out.clear();
  AppendCanonicalDouble(&out, 2.0);
  EXPECT_EQ(out, "2");
  out.clear();
  AppendCanonicalDouble(&out, 1.5);
  EXPECT_EQ(out, "1.5");
  out.clear();
  AppendCanonicalDouble(&out, 1e300);
  EXPECT_EQ(out, "1.0000000000000001e+300");  // 1e300 isn't representable.
}

TEST(JsonWriterTest, StringEscaping) {
  std::string out;
  AppendQuotedString(&out, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\u000ad\\u0009e\\u0001\"");
  // UTF-8 multibyte passes through verbatim.
  out.clear();
  AppendQuotedString(&out, "caf\xC3\xA9");
  EXPECT_EQ(out, "\"caf\xC3\xA9\"");
}

TEST(JsonWriterTest, ScheduledNewlinesReproduceLegacyLayout) {
  JsonWriter w;
  w.BeginObject();
  w.Newline("  ");
  w.Key("a");
  w.Raw(" ");
  w.Uint(1);
  w.Newline("  ");
  w.Key("b");
  w.Raw(" ");
  w.Uint(2);
  w.Newline("");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": 2\n}");
}

// ---------------------------------------------------------------------------
// Parser: round trips and malformed input.
// ---------------------------------------------------------------------------

TEST(JsonParserTest, CanonicalRoundTripIsByteIdentical) {
  const std::string doc =
      "{\"s\":\"a\\\"b\",\"n\":0.10000000000000001,\"i\":-7,\"u\":42,"
      "\"t\":true,\"f\":false,\"z\":null,\"arr\":[1,2.5,{\"k\":[]}]}";
  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(ToCanonicalJson(*parsed), doc);
}

TEST(JsonParserTest, UnicodeEscapesAndSurrogatePairs) {
  auto parsed = ParseJson("\"\\u0041\\u00e9\\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->string_value, "A\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonParserTest, KeyOrderIsPreservedAndFindReturnsFirst) {
  auto parsed = ParseJson("{\"b\":1,\"a\":2,\"b\":3}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->object.size(), 3u);
  EXPECT_EQ(parsed->object[0].first, "b");
  EXPECT_EQ(parsed->object[1].first, "a");
  const JsonValue* b = parsed->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->number, 1.0);
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",            // empty
      "{",           // unterminated object
      "{\"a\":}",    // missing value
      "[1,]",        // trailing comma
      "\"abc",       // unterminated string
      "tru",         // truncated literal
      "{} x",        // trailing garbage
      "\"\\ud83d\"", // lone high surrogate
      "01",          // leading zero
  };
  for (const char* doc : bad) {
    EXPECT_FALSE(ParseJson(doc).ok()) << "accepted: " << doc;
  }
}

// ---------------------------------------------------------------------------
// Registry: exact totals under a ThreadPool (TSan leg covers the races).
// ---------------------------------------------------------------------------

TEST(RegistryTest, ExactTotalsUnderThreadPool) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("test.events");
  HistogramMetric* hist =
      registry.GetHistogram("test.hist", {1.0, 2.0, 4.0, 8.0});
  // Stable pointers: re-registration returns the same instrument.
  EXPECT_EQ(counter, registry.GetCounter("test.events"));
  EXPECT_EQ(hist, registry.GetHistogram("test.hist", {99.0}));

  constexpr std::uint64_t kTotal = 200000;
  runtime::ThreadPool pool(4);
  const unsigned shards = runtime::ShardCountFor(&pool, kTotal);
  runtime::ParallelFor(&pool, kTotal, shards,
                       [&](unsigned, runtime::ShardRange range) {
                         for (std::uint64_t g = range.begin; g < range.end;
                              ++g) {
                           counter->Add(1);
                           hist->Record(static_cast<double>(g % 5));
                         }
                       });

  EXPECT_EQ(counter->Value(), kTotal);
  EXPECT_EQ(hist->Count(), kTotal);
  // Integer-valued observations: the CAS-summed double is exact in any
  // interleaving. sum over g%5 for a multiple of 5 is total/5 * (0+..+4).
  EXPECT_EQ(hist->Sum(), static_cast<double>(kTotal / 5 * 10));
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i <= 4; ++i) bucket_total += hist->CountInBucket(i);
  EXPECT_EQ(bucket_total, kTotal);
}

TEST(RegistryTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  HistogramMetric h({1.0, 2.0, 4.0});
  h.Record(0.0);   // <= 1       -> bucket 0
  h.Record(1.0);   // == bound 0 -> bucket 0 (inclusive)
  h.Record(1.5);   //            -> bucket 1
  h.Record(2.0);   // == bound 1 -> bucket 1
  h.Record(4.0);   // == bound 2 -> bucket 2
  h.Record(4.01);  // past last  -> overflow bucket 3
  EXPECT_EQ(h.CountInBucket(0), 2u);
  EXPECT_EQ(h.CountInBucket(1), 2u);
  EXPECT_EQ(h.CountInBucket(2), 1u);
  EXPECT_EQ(h.CountInBucket(3), 1u);
  EXPECT_EQ(h.Count(), 6u);
}

TEST(RegistryTest, WriteJsonIsSortedByNameAndResetZeroesInPlace) {
  MetricRegistry registry;
  Counter* z = registry.GetCounter("zz.last");
  HistogramMetric* m = registry.GetHistogram("mm.hist", {1.0});
  Counter* a = registry.GetCounter("aa.first");
  a->Add(3);
  m->Record(2.5);
  z->Add(7);

  JsonWriter w;
  w.BeginObject();
  registry.WriteJson(&w);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"aa.first\":3,\"mm.hist\":{\"count\":1,\"sum\":2.5,"
            "\"bounds\":[1],\"counts\":[0,1]},\"zz.last\":7}");

  registry.Reset();
  EXPECT_EQ(a->Value(), 0u);            // Same pointer, zeroed in place.
  EXPECT_EQ(z->Value(), 0u);
  EXPECT_EQ(m->Count(), 0u);
  EXPECT_EQ(registry.GetCounter("aa.first"), a);
}

// ---------------------------------------------------------------------------
// Snapshot streams: determinism across engines, pools, and intervals.
// ---------------------------------------------------------------------------

broadcast::BroadcastProgram BuildTestProgram() {
  std::vector<broadcast::FlatFileSpec> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back({"F" + std::to_string(i), 4, 8, {}});
  }
  auto p = broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kSpread);
  EXPECT_TRUE(p.ok()) << p.status();
  return *p;
}

constexpr std::uint64_t kHorizon = 2048;

std::string StreamFor(const sim::Simulator& simulator, bool evented,
                      runtime::ThreadPool* pool,
                      std::uint64_t interval_slots) {
  sim::WorkloadConfig config;
  config.requests_per_file = 64;
  config.seed = 99;
  Timeline timeline(interval_slots, kHorizon);
  auto metrics = evented
                     ? simulator.RunWorkloadEvented(config, pool, &timeline)
                     : simulator.RunWorkload(config, pool, &timeline);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return RenderSnapshotStream(timeline, nullptr);
}

TEST(SnapshotTest, StreamIsByteIdenticalAcrossEnginesAndPools) {
  const auto program = BuildTestProgram();
  auto channel = faults::ParseChannelSpec("bernoulli:p=0.05,seed=7");
  ASSERT_TRUE(channel.ok()) << channel.status();
  const sim::Simulator simulator(program, **channel, kHorizon);

  const std::string slot_serial = StreamFor(simulator, false, nullptr, 16);
  ASSERT_FALSE(slot_serial.empty());
  EXPECT_EQ(slot_serial, StreamFor(simulator, true, nullptr, 16))
      << "event-serial stream differs from slot-serial";
  runtime::ThreadPool pool(3);
  EXPECT_EQ(slot_serial, StreamFor(simulator, false, &pool, 16))
      << "slot-pooled stream differs from slot-serial";
  EXPECT_EQ(slot_serial, StreamFor(simulator, true, &pool, 16))
      << "event-pooled stream differs from slot-serial";
}

// Last line of a stream (the "final" line when no registry is attached).
JsonValue FinalLineOf(const std::string& stream) {
  const std::size_t end = stream.find_last_not_of('\n');
  const std::size_t begin = stream.find_last_of('\n', end);
  auto parsed = ParseJson(stream.substr(
      begin == std::string::npos ? 0 : begin + 1, end - begin));
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.ok() ? *parsed : JsonValue{};
}

double NumField(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  EXPECT_NE(v, nullptr) << "missing field " << key;
  return v != nullptr ? v->number : -1.0;
}

TEST(SnapshotTest, FinalLineIsIntervalInvariant) {
  const auto program = BuildTestProgram();
  auto channel = faults::ParseChannelSpec("bernoulli:p=0.05,seed=7");
  ASSERT_TRUE(channel.ok()) << channel.status();
  const sim::Simulator simulator(program, **channel, kHorizon);

  // The cumulative end state cannot depend on how finely it was sampled.
  const JsonValue fine = FinalLineOf(StreamFor(simulator, false, nullptr, 1));
  const JsonValue coarse =
      FinalLineOf(StreamFor(simulator, false, nullptr, kHorizon));
  for (const char* key :
       {"completed", "incomplete", "attempts", "missed_deadline",
        "errors_observed", "mean_latency", "max_latency", "mean_stall",
        "undecodable_rate", "miss_rate"}) {
    EXPECT_EQ(NumField(fine, key), NumField(coarse, key)) << key;
  }
  // Every request is accounted for: attempts = completed + incomplete.
  EXPECT_EQ(NumField(fine, "attempts"),
            NumField(fine, "completed") + NumField(fine, "incomplete"));
  EXPECT_EQ(NumField(fine, "attempts"),
            static_cast<double>(4 * 64));  // files x requests_per_file
}

TEST(SnapshotTest, StreamGeometryMatchesIntervalArithmetic) {
  Timeline timeline(7, 100);
  EXPECT_EQ(timeline.bucket_count(), 15u);  // ceil(100 / 7)
  timeline.RecordCompleted(/*completion_slot=*/99, /*latency=*/100,
                           /*stall=*/0, /*met_deadline=*/true, /*errors=*/0,
                           /*corrupt=*/0);
  timeline.RecordIncomplete(/*errors=*/2, /*corrupt=*/1);
  const std::string stream = RenderSnapshotStream(timeline, nullptr);
  // 1 header + 15 snapshot/final lines, no registry line.
  std::size_t lines = 0;
  for (char c : stream) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 16u);
  const JsonValue final_line = FinalLineOf(stream);
  EXPECT_EQ(NumField(final_line, "slot"), 100.0);  // Clamped to horizon.
  EXPECT_EQ(NumField(final_line, "completed"), 1.0);
  EXPECT_EQ(NumField(final_line, "incomplete"), 1.0);
  EXPECT_EQ(NumField(final_line, "undecodable_rate"), 0.5);
  EXPECT_EQ(NumField(final_line, "total_errors_observed"), 2.0);
  EXPECT_EQ(NumField(final_line, "total_corrupt_detected"), 1.0);
}

TEST(SnapshotTest, EmptyTimelineStillRendersEveryIntervalAndAFinalLine) {
  // A run that recorded nothing (e.g. a workload of zero requests) must
  // still produce the full snapshot geometry with all-zero rows, not an
  // empty or truncated stream — bdisk_top renders whatever exists.
  Timeline timeline(16, 256);
  const std::string stream = RenderSnapshotStream(timeline, nullptr);
  std::size_t lines = 0;
  for (char c : stream) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u + 256 / 16);  // header + one line per interval
  const JsonValue final_line = FinalLineOf(stream);
  EXPECT_EQ(NumField(final_line, "slot"), 256.0);
  EXPECT_EQ(NumField(final_line, "attempts"), 0.0);
  EXPECT_EQ(NumField(final_line, "completed"), 0.0);
  // Zero attempts must not divide by zero.
  EXPECT_EQ(NumField(final_line, "undecodable_rate"), 0.0);
  EXPECT_EQ(NumField(final_line, "miss_rate"), 0.0);
}

TEST(SnapshotTest, IntervalLargerThanHorizonCollapsesToOneBucket) {
  // interval_slots > horizon is legal: the whole run is one snapshot
  // interval, and the single line doubles as the final line.
  Timeline timeline(5000, 100);
  EXPECT_EQ(timeline.bucket_count(), 1u);
  timeline.RecordCompleted(/*completion_slot=*/42, /*latency=*/43,
                           /*stall=*/0, /*met_deadline=*/true, /*errors=*/0,
                           /*corrupt=*/0);
  const std::string stream = RenderSnapshotStream(timeline, nullptr);
  std::size_t lines = 0;
  for (char c : stream) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);  // header + the one final line
  const JsonValue final_line = FinalLineOf(stream);
  EXPECT_EQ(final_line.Find("type")->string_value, "final");
  EXPECT_EQ(NumField(final_line, "slot"), 100.0);  // Clamped to horizon.
  EXPECT_EQ(NumField(final_line, "completed"), 1.0);
}

TEST(SnapshotTest, AllIncompleteRunStreamsConsistentlyAcrossEngines) {
  // A channel that loses every slot: nothing ever decodes. The stream
  // must still be well formed (no latency statistics to aggregate) and
  // byte-identical across engines and pools.
  const auto program = BuildTestProgram();
  auto channel = faults::ParseChannelSpec("outage:period=64,start=0,len=64");
  ASSERT_TRUE(channel.ok()) << channel.status();
  const sim::Simulator simulator(program, **channel, kHorizon);

  const std::string slot_serial = StreamFor(simulator, false, nullptr, 256);
  const JsonValue final_line = FinalLineOf(slot_serial);
  EXPECT_EQ(NumField(final_line, "completed"), 0.0);
  EXPECT_EQ(NumField(final_line, "incomplete"),
            static_cast<double>(4 * 64));
  EXPECT_EQ(NumField(final_line, "undecodable_rate"), 1.0);
  EXPECT_EQ(NumField(final_line, "miss_rate"), 1.0);
  EXPECT_EQ(NumField(final_line, "mean_latency"), 0.0);

  EXPECT_EQ(slot_serial, StreamFor(simulator, true, nullptr, 256))
      << "event-serial stream differs on the all-incomplete run";
  runtime::ThreadPool pool(3);
  EXPECT_EQ(slot_serial, StreamFor(simulator, true, &pool, 256))
      << "event-pooled stream differs on the all-incomplete run";
}

// ---------------------------------------------------------------------------
// StreamTail exactly-once framing (the bdisk_top --follow engine).

TEST(StreamTailTest, UnterminatedLineIsPendingThenDeliveredExactlyOnce) {
  StreamTail tail;
  std::vector<std::string> lines;
  const auto sink = [&lines](const std::string& l) { lines.push_back(l); };
  tail.Feed("alpha\nbra", 9, sink);
  // "bra" has no newline yet: buffered, not delivered.
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "alpha");
  EXPECT_EQ(tail.pending(), "bra");
  // The producer completes the line: one delivery, with both halves.
  tail.Feed("vo\n", 3, sink);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "bravo");
  EXPECT_TRUE(tail.pending().empty());
}

TEST(StreamTailTest, PollFileCompletesPartialLineExactlyOnce) {
  const std::string path = ::testing::TempDir() + "/bdisk_tail_poll_test";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "one\ntw";  // Final line mid-write, no trailing newline.
  }
  StreamTail tail;
  std::vector<std::string> lines;
  const auto sink = [&lines](const std::string& l) { lines.push_back(l); };
  ASSERT_TRUE(tail.PollFile(path, sink));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(tail.pending(), "tw");
  // Nothing appended: polling again must not re-deliver anything.
  ASSERT_TRUE(tail.PollFile(path, sink));
  EXPECT_EQ(lines.size(), 1u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "o\nthree\n";
  }
  ASSERT_TRUE(tail.PollFile(path, sink));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "two");  // Once, whole — not "tw" + "two".
  EXPECT_EQ(lines[2], "three");
  std::remove(path.c_str());
}

TEST(StreamTailTest, TruncateMidLineRestartsFromByteZero) {
  const std::string path = ::testing::TempDir() + "/bdisk_tail_trunc_test";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "first run line\npartial tail without newline";
  }
  StreamTail tail;
  std::vector<std::string> lines;
  const auto sink = [&lines](const std::string& l) { lines.push_back(l); };
  bool restarted = false;
  ASSERT_TRUE(tail.PollFile(path, sink, &restarted));
  EXPECT_FALSE(restarted);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_FALSE(tail.pending().empty());
  // A fresh (shorter) run replaces the file while the old tail is
  // mid-line: the tail must discard the stale pending bytes and re-read
  // from byte zero instead of splicing two unrelated files together.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "second\n";
  }
  ASSERT_TRUE(tail.PollFile(path, sink, &restarted));
  EXPECT_TRUE(restarted);
  EXPECT_EQ(tail.truncations(), 1u);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "second");
  EXPECT_TRUE(tail.pending().empty());
  EXPECT_EQ(tail.offset(), 7u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MergeConcatenatesShardLogs) {
  Timeline a(4, 64);
  Timeline b(4, 64);
  a.RecordCompleted(3, 4, 0, true, 0, 0);
  b.RecordCompleted(9, 10, 2, false, 1, 0);
  b.RecordIncomplete(0, 0);
  a.Merge(std::move(b));
  const JsonValue final_line = FinalLineOf(RenderSnapshotStream(a, nullptr));
  EXPECT_EQ(NumField(final_line, "completed"), 2.0);
  EXPECT_EQ(NumField(final_line, "incomplete"), 1.0);
  EXPECT_EQ(NumField(final_line, "missed_deadline"), 1.0);
  EXPECT_EQ(NumField(final_line, "mean_latency"), 7.0);
}

}  // namespace
}  // namespace bdisk::obs
