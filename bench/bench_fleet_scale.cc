// Fleet-scale event-engine bench: 1M clients over a 10k-slot trace on one
// box, inside a 2 GB peak-RSS budget.
//
// The discrete-event engine (sim/event_engine.h) pays O(transmissions
// heard) per retrieval in ~96 bytes of state per client; the slot walk pays
// O(slots spanned) in constant memory. The event engine wins when a
// retrieval spans many slots of other files. On pipebench fleet's
// 16-file, period-32 program the two run about even on 4 threads, and the
// slot walk wins at 1M clients on one thread (docs/ARCHITECTURE.md, "The
// event engine").
// The bench
//
//   * generates clients on demand — Zipf file choice + Poisson arrivals,
//     both pure functions of the client index (no materialized request
//     list), so the fleet itself costs no memory;
//   * runs the evented fleet, reports events/sec, mean delay, and peak RSS
//     (VmHWM from /proc/self/status), and FAILS (exit 1) if peak RSS
//     exceeds 2 GB;
//   * cross-checks the engine in-process on a small configuration:
//     RunWorkloadEvented's MetricsToJson must equal RunWorkload's byte for
//     byte before any number is reported;
//   * asserts the ops plane's overhead budget: the fleet is run as three
//     interleaved (obs-off, snapshots-on, tracing-on) triples — the
//     snapshot run records an obs::Timeline at 1-slot granularity, the
//     trace run samples causal spans at 1/1024 with anomaly triggers
//     armed (obs/trace.h) — and FAILS if either enabled side's best time
//     exceeds the best obs-off time by more than 1% (plus a 5 ms absolute
//     floor so sub-second CI smoke configurations aren't gated on timer
//     noise).
//
// Flags: --clients N (1000000), --slots N (10000), --threads N (1),
//        --seed N (42).
//
//   ./bench_fleet_scale --threads 4
//   ./bench_fleet_scale --clients 100000        # CI smoke configuration
//
// The BDISK_BENCH_SLEEP_MS env var injects a sleep into every timed run —
// an intentional slowdown hook that CI's perf-gate self-test uses to prove
// bench_compare actually trips on a regression.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bdisk/flat_builder.h"
#include "bench_util.h"
#include "common/zipf.h"
#include "faults/channel_spec.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "runtime/flags.h"
#include "runtime/rng_stream.h"
#include "runtime/thread_pool.h"
#include "sim/arrivals.h"
#include "sim/event_engine.h"
#include "sim/metrics.h"
#include "sim/simulation.h"

namespace {

using namespace bdisk;             // NOLINT
using namespace bdisk::broadcast;  // NOLINT
using namespace bdisk::sim;        // NOLINT

/// Peak resident set (VmHWM) in kB from /proc/self/status; 0 off-Linux.
std::uint64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// A 16-file AIDA program (8-of-16 dispersal, spread layout): period 128,
// realistic block redundancy, and per-file occurrence lists long enough to
// exercise the jump arithmetic.
BroadcastProgram BuildFleetProgram() {
  std::vector<FlatFileSpec> files;
  for (int i = 0; i < 16; ++i) {
    files.push_back({"F" + std::to_string(i), 8, 16, {}});
  }
  auto p = BuildFlatProgram(files, FlatLayout::kSpread);
  if (!p.ok()) {
    std::fprintf(stderr, "program build failed: %s\n",
                 p.status().ToString().c_str());
    std::exit(1);
  }
  return *p;
}

/// Small-configuration byte-identity cross-check of the two engines,
/// in-process: any drift disqualifies the numbers below.
bool EnginesAgreeOnSmallConfig(runtime::ThreadPool* pool) {
  const BroadcastProgram program = BuildFleetProgram();
  auto channel = faults::ParseChannelSpec("bernoulli:p=0.05,seed=7");
  if (!channel.ok()) return false;
  const Simulator simulator(program, **channel, 4096);
  WorkloadConfig config;
  config.requests_per_file = 50;
  config.seed = 1234;
  auto slot = simulator.RunWorkload(config, nullptr);
  auto event = simulator.RunWorkloadEvented(config, pool);
  if (!slot.ok() || !event.ok()) return false;
  return MetricsToJson(*slot) == MetricsToJson(*event);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads =
      runtime::OrExit(runtime::ConsumeThreadsFlagOnce(&argc, argv));
  const std::uint64_t clients = runtime::OrExit(
      runtime::ConsumeUintFlagOnce(&argc, argv, "clients", 1000000));
  const std::uint64_t slots = runtime::OrExit(
      runtime::ConsumeUintFlagOnce(&argc, argv, "slots", 10000));
  const std::uint64_t seed =
      runtime::OrExit(runtime::ConsumeUintFlagOnce(&argc, argv, "seed", 42));
  runtime::OrExit(runtime::ExpectPositionals(argc, argv, 0));

  std::unique_ptr<runtime::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<runtime::ThreadPool>(threads);

  if (!EnginesAgreeOnSmallConfig(pool.get())) {
    std::fprintf(stderr,
                 "FAIL: event engine diverged from the slot engine on the "
                 "small cross-check configuration\n");
    return 1;
  }
  std::printf("engine cross-check: event == slot (byte-identical)\n");

  const BroadcastProgram program = BuildFleetProgram();
  auto channel = faults::ParseChannelSpec("bernoulli:p=0.02,seed=5");
  if (!channel.ok()) {
    std::fprintf(stderr, "%s\n", channel.status().ToString().c_str());
    return 1;
  }
  std::vector<faults::FaultType> trace(slots);
  (*channel)->FillFaults(0, slots, trace.data());
  const EventEngine engine(program, trace);

  // Clients: Zipf(0.95)-skewed file choice, Poisson arrivals over the
  // window that leaves every client room to finish (tail = 8 periods).
  const std::uint64_t tail = 8 * program.period();
  if (slots <= tail) {
    std::fprintf(stderr, "--slots must exceed %llu\n",
                 static_cast<unsigned long long>(tail));
    return 1;
  }
  const ZipfDistribution zipf(program.files().size(), 0.95);
  const PoissonArrivals arrivals(slots - tail, seed);
  const auto client_at = [&](std::uint64_t g) {
    EventClient client;
    client.file = static_cast<FileIndex>(
        zipf.Sample(runtime::StreamRng(seed ^ 0x5a5a5a5aULL, g)
                        .UniformDouble()));
    client.start_slot = arrivals.ArrivalSlotOf(g);
    return client;
  };

  std::printf("fleet: %llu clients, %llu slots, %u thread(s), %s\n",
              static_cast<unsigned long long>(clients),
              static_cast<unsigned long long>(slots), threads,
              arrivals.Describe().c_str());

  // The perf-gate self-test hook: CI reruns the bench with this set to
  // prove bench_compare trips on an induced slowdown.
  std::uint64_t sleep_ms = 0;
  if (const char* env = std::getenv("BDISK_BENCH_SLEEP_MS")) {
    sleep_ms = std::strtoull(env, nullptr, 10);
  }

  EventEngineStats stats;
  SimulationMetrics metrics;
  const auto timed_run = [&](bdisk::obs::Timeline* timeline,
                             bdisk::obs::TraceSink* trace) {
    const auto t0 = std::chrono::steady_clock::now();
    metrics = engine.Run(clients, client_at, pool.get(), &stats, timeline,
                         trace);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
        .count();
  };

  // Three interleaved (obs-off, snapshots-on, tracing-on) triples;
  // min-of-runs on each side cancels scheduler noise. The snapshot
  // timeline runs at the finest possible granularity (1 slot) — the worst
  // case for recording cost — and each enabled run gets a fresh timeline
  // / sink, as a streamer would. The trace run is the production flight
  // configuration: 1/1024 sampling with anomaly triggers armed.
  constexpr int kPairs = 3;
  double best_off = 0.0;
  double best_on = 0.0;
  double best_trace = 0.0;
  std::uint64_t traced_spans = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const double off = timed_run(nullptr, nullptr);
    if (pair == 0 || off < best_off) best_off = off;
    bdisk::obs::Timeline timeline(1, slots);
    const double on = timed_run(&timeline, nullptr);
    if (pair == 0 || on < best_on) best_on = on;
    bdisk::obs::TraceOptions trace_options;
    trace_options.sample_every = 1024;
    bdisk::obs::TraceSink sink(trace_options);
    const double traced = timed_run(nullptr, &sink);
    if (pair == 0 || traced < best_trace) best_trace = traced;
    traced_spans = sink.recorded_count();
  }
  const double seconds = best_off;

  const double events_per_sec =
      seconds > 0.0 ? static_cast<double>(stats.events) / seconds : 0.0;
  const double mean_delay = metrics.OverallMeanLatency();
  const std::uint64_t peak_kb = PeakRssKb();
  const double peak_mb = static_cast<double>(peak_kb) / 1024.0;

  const double overhead_pct =
      best_off > 0.0 ? 100.0 * (best_on - best_off) / best_off : 0.0;
  const double trace_overhead_pct =
      best_off > 0.0 ? 100.0 * (best_trace - best_off) / best_off : 0.0;
  std::printf("events processed : %llu (%.2fM events/s)\n",
              static_cast<unsigned long long>(stats.events),
              events_per_sec / 1e6);
  std::printf("wall time        : %.2f s (best of %d; snapshots on: "
              "%.2f s, %+.2f%%; tracing 1/1024: %.2f s, %+.2f%%, "
              "%llu spans)\n",
              seconds, kPairs, best_on, overhead_pct, best_trace,
              trace_overhead_pct,
              static_cast<unsigned long long>(traced_spans));
  std::printf("mean delay       : %.1f slots\n", mean_delay);
  std::printf("undecodable rate : %.6f\n", metrics.OverallUndecodableRate());
  std::printf("peak RSS         : %.1f MB\n", peak_mb);

  benchutil::EmitJson("bench_fleet_scale", "events_per_sec", events_per_sec,
                      threads);
  benchutil::EmitJson("bench_fleet_scale", "clients",
                      static_cast<double>(clients), threads);
  benchutil::EmitJson("bench_fleet_scale", "mean_delay_slots", mean_delay,
                      threads);
  benchutil::EmitJson("bench_fleet_scale", "undecodable_rate",
                      metrics.OverallUndecodableRate(), threads);
  benchutil::EmitJson("bench_fleet_scale", "peak_rss_mb", peak_mb, threads);
  benchutil::EmitJson("bench_fleet_scale", "snapshot_overhead_pct",
                      overhead_pct, threads);
  benchutil::EmitJson("bench_fleet_scale", "trace_overhead_pct",
                      trace_overhead_pct, threads);

  // The ops-plane budget: full snapshot recording at 1-slot granularity
  // must cost < 1% wall clock (5 ms absolute floor for sub-second smoke
  // configurations, where a single timer tick exceeds 1%).
  if (best_on > best_off * 1.01 + 0.005) {
    std::fprintf(stderr,
                 "FAIL: snapshot streaming overhead %.2f%% exceeds the 1%% "
                 "budget (off %.3f s, on %.3f s)\n",
                 overhead_pct, best_off, best_on);
    return 1;
  }

  // Same budget for causal tracing at the production 1/1024 sampling
  // rate: the hot path pays one trigger check per client; span replay is
  // paid only for the sampled/anomalous few.
  if (best_trace > best_off * 1.01 + 0.005) {
    std::fprintf(stderr,
                 "FAIL: trace capture overhead %.2f%% exceeds the 1%% "
                 "budget (off %.3f s, traced %.3f s)\n",
                 trace_overhead_pct, best_off, best_trace);
    return 1;
  }

  // The budget that makes million-client fleets routine on one box.
  constexpr double kBudgetMb = 2048.0;
  if (peak_kb == 0) {
    std::printf("peak RSS unavailable on this platform; budget not "
                "enforced\n");
  } else if (peak_mb >= kBudgetMb) {
    std::fprintf(stderr, "FAIL: peak RSS %.1f MB >= %.0f MB budget\n",
                 peak_mb, kBudgetMb);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
