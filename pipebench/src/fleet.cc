// fleet: the discrete-event simulator on a cache-sized fleet.
//
// Set-up plans a pinwheel program of 16 files with 8-of-16 dispersal,
// realizes a seeded Bernoulli fault trace with ChannelModel::FillFaults,
// builds the EventEngine, and runs the fleet once untimed (the warm-up).
// Every round sets up afresh. A round is one EventEngine::Run with no pool (single thread) over
// ~100k clients with Zipf(0.95) file choice and Poisson arrivals. It
// moves no bytes and touches no socket or store.

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bdisk/block_size.h"
#include "bdisk/spec_parser.h"
#include "common/zipf.h"
#include "faults/channel_spec.h"
#include "pinwheel/composite_scheduler.h"
#include "runtime/rng_stream.h"
#include "sim/arrivals.h"
#include "sim/event_engine.h"
#include "sim/metrics.h"
#include "sim/simulation.h"
#include "workloads.h"

namespace pipebench {
namespace {

namespace broadcast = bdisk::broadcast;
namespace faults = bdisk::faults;
namespace sim = bdisk::sim;
using bdisk::Result;
using bdisk::Status;

// The simulated horizon.
constexpr std::uint64_t kSlots = 10000;
constexpr std::uint64_t kClients = 100000;
// Requests per file of the slot-vs-event cross-check.
constexpr std::uint64_t kCrosscheckRequestsPerFile = 50;

// 16 files of 8 blocks that tolerate 8 faults each (n = 16), at density
// 0.5: every file needs 16 blocks in a 512-slot window.
std::string FleetSpecText() {
  std::ostringstream out;
  out << "# fleet\nchannel " << 1024 * 1024 << "\nblocksize 1024\n";
  for (int i = 0; i < 16; ++i) {
    out << "file F" << i << " bytes=8192 latency=0.5 faults=8\n";
  }
  return out.str();
}

std::string FleetChannelSpec(std::uint64_t seed) {
  return "bernoulli:p=0.01,seed=" + std::to_string(seed + 5);
}

/// Set-up state. The engine borrows `program` and `trace`, so the struct
/// lives behind a unique_ptr and never moves.
struct FleetSetup {
  broadcast::BroadcastProgram program;
  std::unique_ptr<faults::ChannelModel> channel;
  std::vector<faults::FaultType> trace;
  std::optional<sim::EventEngine> engine;
  std::optional<bdisk::ZipfDistribution> zipf;
  std::optional<sim::PoissonArrivals> arrivals;
  std::uint64_t seed = 0;
  std::uint64_t clients = 0;
  double start_sum = 0.0;
  double plan_ms = 0.0;
  double fill_ms = 0.0;
  double arrivals_ms = 0.0;
  std::string warm_json;
  sim::SimulationMetrics warm;
  std::uint64_t warm_events = 0;

  sim::EventClient ClientAt(std::uint64_t g) const {
    sim::EventClient client;
    client.file = static_cast<broadcast::FileIndex>(zipf->Sample(
        bdisk::runtime::StreamRng(seed ^ 0x5a5a5a5aULL, g).UniformDouble()));
    client.start_slot = arrivals->ArrivalSlotOf(g);
    return client;
  }
};

Result<std::unique_ptr<FleetSetup>> SetUpFleet(const Options& options) {
  auto s = std::make_unique<FleetSetup>();
  s->seed = options.seed;
  s->clients = kClients;
  const std::uint64_t t_plan = NowNs();
  BDISK_ASSIGN_OR_RETURN(broadcast::WorkloadSpec spec,
                         broadcast::ParseWorkloadSpec(FleetSpecText()));
  const bdisk::pinwheel::CompositeScheduler scheduler;
  BDISK_ASSIGN_OR_RETURN(
      broadcast::BlockSizeChoice choice,
      broadcast::ChooseLargestFeasibleBlockSize(
          spec.byte_files, spec.channel_bytes_per_second, scheduler,
          {spec.block_size}));
  s->plan_ms = static_cast<double>(NowNs() - t_plan) / 1e6;
  s->program = std::move(choice.build.program);

  // A tail after the last arrival of eight periods (as bench_fleet_scale)
  // or two worst-case latencies, whichever is longer.
  std::uint64_t max_latency = 0;
  for (const broadcast::ProgramFile& pf : s->program.files()) {
    for (const std::uint64_t d : pf.latency_slots) {
      max_latency = std::max(max_latency, d);
    }
  }
  const std::uint64_t tail =
      std::max<std::uint64_t>(8 * s->program.period(), 2 * max_latency);
  if (kSlots < 2 * tail) {
    return Status::Internal("fleet: horizon too short for the latencies");
  }
  const std::uint64_t slots = kSlots;
  BDISK_ASSIGN_OR_RETURN(s->channel,
                         faults::ParseChannelSpec(FleetChannelSpec(s->seed)));
  s->trace.resize(slots);
  const std::uint64_t t_fill = NowNs();
  s->channel->FillFaults(0, slots, s->trace.data());
  s->fill_ms = static_cast<double>(NowNs() - t_fill) / 1e6;
  s->engine.emplace(s->program, s->trace);
  s->zipf.emplace(s->program.file_count(), 0.95);
  s->arrivals.emplace(slots - tail, s->seed);

  const std::uint64_t t_arrivals = NowNs();
  for (std::uint64_t g = 0; g < s->clients; ++g) {
    s->start_sum += static_cast<double>(s->ClientAt(g).start_slot);
  }
  s->arrivals_ms = static_cast<double>(NowNs() - t_arrivals) / 1e6;

  // Warm-up: one full untimed run; the timed runs must reproduce it.
  sim::EventEngineStats stats;
  const FleetSetup* self = s.get();
  s->warm = s->engine->Run(
      s->clients, [self](std::uint64_t g) { return self->ClientAt(g); },
      nullptr, &stats);
  s->warm_json = sim::MetricsToJson(s->warm);
  s->warm_events = stats.events;
  return s;
}

/// The slot engine and the event engine must agree byte for byte on a
/// small configuration of the same program and channel.
bool EnginesAgree(const FleetSetup& s) {
  const sim::Simulator simulator(s.program, *s.channel, 4096);
  sim::WorkloadConfig workload;
  workload.requests_per_file = kCrosscheckRequestsPerFile;
  workload.seed = s.seed;
  auto slot = simulator.RunWorkload(workload, nullptr);
  auto event = simulator.RunWorkloadEvented(workload, nullptr);
  return slot.ok() && event.ok() &&
         sim::MetricsToJson(*slot) == sim::MetricsToJson(*event);
}

}  // namespace

Report RunFleet(const Options& options, Deterministic* out) {
  Report report;
  std::vector<double> setup_s;
  std::optional<std::unique_ptr<FleetSetup>> setup;
  std::vector<double> ops_per_s, cpu_per_op, slot_us, traced_cpu_per_op;
  Tracer tracer(1024);
  std::uint64_t traced_events = 0, traced_clients = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_json;
  int index = 0;
  const std::uint64_t phase0 = NowNs();
  while (cpu_per_op.size() < 2 ||
         (options.trace && traced_cpu_per_op.size() < 2) ||
         static_cast<double>(NowNs() - phase0) / 1e9 < options.seconds) {
    const Status set_up =
        TimedSetUp(&setup, &setup_s, [&] { return SetUpFleet(options); });
    if (!set_up.ok()) {
      report.Fail("set-up: " + set_up.ToString());
      return report;
    }
    const FleetSetup& s = **setup;
    if (index == 0) {
      first_json = s.warm_json;
      if (!EnginesAgree(s)) {
        report.Fail("event engine diverged from the slot engine");
      }
      report.notes.push_back(
          "fleet: " + std::to_string(s.clients) + " clients, " +
          std::to_string(s.trace.size()) + " slots, period " +
          std::to_string(s.program.period()) + ", " +
          std::to_string(s.warm_events) + " events per run, channel " +
          FleetChannelSpec(s.seed));
    } else if (s.warm_json != first_json) {
      report.Fail("set-ups of one seed disagree");
    }
    const std::function<sim::EventClient(std::uint64_t)> client_at =
        [&s](std::uint64_t g) { return s.ClientAt(g); };
    const bool traced = options.trace && index % 2 == 1;
    ++index;
    sim::SimulationMetrics metrics;
    std::uint64_t events = 0;
    const std::uint64_t cpu0 = ThreadCpuNs();
    const std::uint64_t t0 = NowNs();
    if (!traced) {
      sim::EventEngineStats stats;
      metrics = s.engine->Run(s.clients, client_at, nullptr, &stats);
      events = stats.events;
    } else {
      // EventEngine::Run's serial path, phase by phase.
      sim::EventShardRunner runner(*s.engine);
      {
        ScopedSpan span(&tracer, Layer::kPrepare);
        runner.Prepare(0, s.clients, client_at);
      }
      {
        ScopedSpan span(&tracer, Layer::kDrain);
        runner.Drain();
      }
      sim::SimulationMetrics local;
      local.per_file.resize(s.program.file_count());
      {
        ScopedSpan span(&tracer, Layer::kCollect);
        runner.Collect(&local);
      }
      metrics.per_file.resize(s.program.file_count());
      for (std::size_t f = 0; f < s.program.file_count(); ++f) {
        metrics.per_file[f].file_name = s.program.files()[f].name;
      }
      metrics.Merge(local);
      events = runner.events_processed();
    }
    const std::uint64_t wall = NowNs() - t0;
    const std::uint64_t cpu = ThreadCpuNs() - cpu0;
    std::uint64_t incomplete = 0;
    for (const sim::FileMetrics& fm : metrics.per_file) {
      incomplete += fm.incomplete;
    }
    attempted += s.clients;
    failed += incomplete;
    if (incomplete > 0) {
      report.Fail(std::to_string(incomplete) + " clients incomplete");
    }
    if (events != s.warm_events || sim::MetricsToJson(metrics) != s.warm_json) {
      report.Fail("a run disagrees with the warm-up run");
    }
    const double ops = static_cast<double>(events);
    if (traced) {
      traced_cpu_per_op.push_back(PerOp(static_cast<double>(cpu), ops));
      traced_events += events;
      traced_clients += s.clients;
    } else {
      ops_per_s.push_back(ops / (static_cast<double>(wall) / 1e9));
      cpu_per_op.push_back(PerOp(static_cast<double>(cpu), ops));
      slot_us.push_back(static_cast<double>(wall) / 1e3 /
                        static_cast<double>(s.trace.size()));
    }
  }
  const FleetSetup& s = **setup;
  const std::uint64_t slots = s.trace.size();
  report.attempted = attempted;
  report.failed = failed;
  const double mean_latency = s.warm.OverallMeanLatency();
  if (out != nullptr) {
    std::uint64_t latency_sum = 0;
    for (const sim::FileMetrics& fm : s.warm.per_file) {
      latency_sum += static_cast<std::uint64_t>(fm.latency.sum());
    }
    out->delays = {latency_sum,
                   static_cast<std::uint64_t>(s.warm.OverallMaxLatency())};
    out->ages = {static_cast<std::uint64_t>(s.start_sum)};
    out->ops = s.warm_events;
  }

  if (!options.trace) {
    report.Add("ops_per_s", Median(ops_per_s), "1/s");
    report.Add("cpu_ns_per_op", Median(cpu_per_op), "ns");
    report.Add("mean_delay_slots", mean_latency, "slots");
    report.Add("max_delay_slots", s.warm.OverallMaxLatency(), "slots");
    // Static files: version 0 exists from slot 0, so a client's data age
    // at completion is its start slot plus its latency.
    report.Add("mean_data_age_slots",
               s.start_sum / static_cast<double>(s.clients) + mean_latency,
               "slots");
    report.Add("slot_us_p50", Quantile(slot_us, 0.50), "us");
    report.Add("slot_us_p99", Quantile(slot_us, 0.99), "us");
    report.NoteSeries("slot us per run", slot_us);
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("setup_s", Median(setup_s), "s");
    report.NoteSeries("set-up seconds", setup_s);
    report.notes.push_back("fleet: " + std::to_string(ops_per_s.size()) +
                           " timed runs; slot time is a run's wall time over "
                           "its simulated slots (1/ops_per_s rescaled), "
                           "quantiles across runs");
    return report;
  }

  const auto self = [&](Layer l) {
    return static_cast<double>(tracer.self_ns(l));
  };
  const double clients = static_cast<double>(traced_clients);
  const double plain = Median(cpu_per_op);
  report.Add("faults.fill_ns_per_slot",
             s.fill_ms * 1e6 / static_cast<double>(slots), "ns");
  report.Add("sim.engine.prepare_ns_per_client",
             PerOp(self(Layer::kPrepare), clients), "ns");
  report.Add("sim.engine.drain_ns_per_event",
             PerOp(self(Layer::kDrain), static_cast<double>(traced_events)),
             "ns");
  report.Add("sim.engine.collect_ns_per_client",
             PerOp(self(Layer::kCollect), clients), "ns");
  report.Add("sim.engine.events_per_client",
             PerOp(static_cast<double>(traced_events), clients), "count");
  report.Add("sim.arrivals_ns_per_client",
             s.arrivals_ms * 1e6 / static_cast<double>(s.clients), "ns");
  report.Add("bdisk.plan_ms", s.plan_ms, "ms");
  report.Add("trace.overhead_frac",
             plain > 0 ? (Median(traced_cpu_per_op) - plain) / plain : 0.0,
             "1");
  report.Add("fail_ratio",
             PerOp(static_cast<double>(failed), static_cast<double>(attempted)),
             "1");
  if (!tracer.WriteSpans(options.work_dir + "/spans_fleet.jsonl")) {
    report.Fail("cannot write the span dump");
  }
  return report;
}

}  // namespace pipebench
