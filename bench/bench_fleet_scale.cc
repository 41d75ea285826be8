// Fleet-scale event-engine bench: 1M clients over a 10k-slot trace on one
// box, inside a 2 GB peak-RSS budget.
//
// The discrete-event engine (sim/event_engine.h) pays O(1) per retrieval
// that loses at most n - m transmissions of its file inside one epoch
// before the horizon, closing it from its file's transmission lane, and
// O(transmissions heard) per retrieval it walks; it handles one
// 4096-client block at a time per thread. The slot walk pays O(slots
// spanned). On pipebench fleet's 16-file, period-32 program the event
// engine wins at 100k and 1M clients, on one thread and on four
// (docs/ARCHITECTURE.md, "The event engine"). The bench
//
//   * generates clients on demand — Zipf file choice + Poisson arrivals,
//     both pure functions of the client index (no materialized request
//     list), so the fleet itself costs no memory;
//   * runs the evented fleet, reports events/sec, the share of clients
//     walked rather than closed, mean delay, and peak RSS (VmHWM from
//     /proc/self/status), and FAILS (exit 1) if peak RSS exceeds 2 GB;
//   * cross-checks the engine in-process on a small configuration:
//     RunWorkloadEvented's MetricsToJson must equal RunWorkload's byte for
//     byte before any number is reported;
//   * asserts the ops plane's overhead budget: the fleet runs obs-off,
//     snapshots-on and tracing-on in turn, one run each, until every side
//     has run for kMinSampleSeconds — the snapshot run records an
//     obs::Timeline at 1-slot granularity, the trace run samples causal
//     spans at 1/1024 with anomaly triggers armed (obs/trace.h) — and
//     FAILS if either enabled side's total time exceeds the obs-off
//     side's by more than 1% (plus a 5 ms absolute floor for timer
//     noise, under 0.4% of a side's total); each side's overhead is also
//     printed in ns per client.
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

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <optional>
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
// realistic block redundancy, and per-file lanes of hundreds of
// transmissions.
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

  // The snapshot timeline runs at the finest possible granularity (1
  // slot) — the worst case for recording cost. The trace run is the
  // production flight configuration: 1/1024 sampling with anomaly
  // triggers armed.
  enum Side { kOff, kSnapshots, kTracing, kSides };
  bdisk::obs::TraceOptions trace_options;
  trace_options.sample_every = 1024;

  // Runs go in rounds of one run per side. Round 0 is an untimed warm-up
  // of every side, whose first run pays first-touch page faults. Timed
  // rounds follow until every side has run for kMinSampleSeconds
  // (google-benchmark's min_time), so a configuration whose run takes
  // milliseconds still yields samples steady enough to gate on. Each round
  // starts one side later than the last, which spreads scheduler noise
  // and any run-order effect evenly over the sides; every side runs
  // equally often, so the budgets compare whole-side totals. The reported
  // throughput is the obs-off side's lower-quartile run: below the
  // stretches of runs that noise slows, and above the odd run that comes
  // out fast, either of which moved the fastest run or the median by more
  // than the perf gate's 10% between captures taken seconds apart on a
  // shared 4-vCPU host. Each run gets a fresh timeline or sink, as a
  // streamer would, built and destroyed outside the timed span.
  constexpr double kMinSampleSeconds = 1.5;
  EventEngineStats stats;
  SimulationMetrics metrics;
  std::uint64_t traced_spans = 0;
  std::vector<double> run_seconds[kSides];
  double side_seconds[kSides] = {};
  for (int round = 0;
       round == 0 || *std::min_element(side_seconds, side_seconds + kSides) <
                         kMinSampleSeconds;
       ++round) {
    for (int k = 0; k < kSides; ++k) {
      const int side = (round + k) % kSides;
      std::optional<bdisk::obs::Timeline> timeline;
      std::optional<bdisk::obs::TraceSink> sink;
      if (side == kSnapshots) timeline.emplace(1, slots);
      if (side == kTracing) sink.emplace(trace_options);
      const auto t0 = std::chrono::steady_clock::now();
      metrics = engine.Run(clients, client_at, pool.get(), &stats,
                           timeline.has_value() ? &*timeline : nullptr,
                           sink.has_value() ? &*sink : nullptr);
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
      const auto t1 = std::chrono::steady_clock::now();
      if (sink.has_value()) traced_spans = sink->recorded_count();
      if (round == 0) continue;
      const double run = std::chrono::duration<double>(t1 - t0).count();
      run_seconds[side].push_back(run);
      side_seconds[side] += run;
    }
  }
  const auto lower_quartile = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 4];
  };
  const double off_run = lower_quartile(run_seconds[kOff]);
  const double off = side_seconds[kOff];
  const double on = side_seconds[kSnapshots];
  const double traced = side_seconds[kTracing];

  const double events_per_sec =
      off_run > 0.0 ? static_cast<double>(stats.events) / off_run : 0.0;
  const double mean_delay = metrics.OverallMeanLatency();
  const std::uint64_t peak_kb = PeakRssKb();
  const double peak_mb = static_cast<double>(peak_kb) / 1024.0;

  const double overhead_pct = off > 0.0 ? 100.0 * (on - off) / off : 0.0;
  const double trace_overhead_pct =
      off > 0.0 ? 100.0 * (traced - off) / off : 0.0;
  std::printf("events processed : %llu (%.2fM events/s)\n",
              static_cast<unsigned long long>(stats.events),
              events_per_sec / 1e6);
  const double walked_pct =
      stats.clients > 0 ? 100.0 * static_cast<double>(stats.clients_walked) /
                              static_cast<double>(stats.clients)
                        : 0.0;
  std::printf("clients walked   : %llu of %llu (%.2f%%; the rest closed "
              "from their lanes)\n",
              static_cast<unsigned long long>(stats.clients_walked),
              static_cast<unsigned long long>(stats.clients), walked_pct);
  std::printf("wall time        : %.3f s per run (lower quartile; fastest "
              "%.3f s); %zu runs per side, obs off %.3f s in total, "
              "snapshots on %.3f s (%+.2f%%), tracing 1/1024 %.3f s "
              "(%+.2f%%, %llu spans per run)\n",
              off_run,
              *std::min_element(run_seconds[kOff].begin(),
                                run_seconds[kOff].end()),
              run_seconds[kOff].size(), off, on, overhead_pct, traced,
              trace_overhead_pct,
              static_cast<unsigned long long>(traced_spans));
  // The same overheads in absolute terms: a relative budget tightens every
  // time the engine gets faster, a cost per client does not.
  const double runs_clients = static_cast<double>(run_seconds[kOff].size()) *
                              static_cast<double>(clients);
  std::printf("obs cost         : snapshots %+.2f ns per client (%+.2f%%), "
              "tracing %+.2f ns per client (%+.2f%%)\n",
              (on - off) * 1e9 / runs_clients, overhead_pct,
              (traced - off) * 1e9 / runs_clients, trace_overhead_pct);
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
  // must cost < 1% wall clock (plus the 5 ms absolute floor).
  if (on > off * 1.01 + 0.005) {
    std::fprintf(stderr,
                 "FAIL: snapshot streaming overhead %.2f%% exceeds the 1%% "
                 "budget (off %.3f s, on %.3f s)\n",
                 overhead_pct, off, on);
    return 1;
  }

  // Same budget for causal tracing at the production 1/1024 sampling
  // rate: the hot path pays one trigger check per client; span replay is
  // paid only for the sampled/anomalous few.
  if (traced > off * 1.01 + 0.005) {
    std::fprintf(stderr,
                 "FAIL: trace capture overhead %.2f%% exceeds the 1%% "
                 "budget (off %.3f s, traced %.3f s)\n",
                 trace_overhead_pct, off, traced);
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
