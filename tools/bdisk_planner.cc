// bdisk_planner — command-line broadcast-disk planner.
//
// Reads a workload spec (see docs/SPEC_FORMAT.md for the grammar) from
// a file or stdin, plans the broadcast program, and prints: the bandwidth
// arithmetic (paper Eq. (2)), the chosen block size (byte-domain specs),
// the per-file pinwheel-algebra conversions (slot-domain specs), the
// program layout, and the exact worst-case retrieval latency per fault
// level.
//
// Usage:
//   bdisk_planner [--threads N] [--adaptive] [--channel SPEC]
//                 [--requests N] [--seed S] workload.spec
//   bdisk_planner [...] - < workload.spec
//
// Every flag takes `--flag V` or `--flag=V` (runtime/flags.h). A flag given
// twice, a malformed value, an unknown flag and a stray argument are usage
// errors: the planner names the flag on stderr and exits 2. So is a
// malformed spec, one that does not parse or holds a value no program can
// represent (say, a latency window past 2^64 slots); a well-formed workload
// that no candidate program can carry is infeasible and exits 1.
//
// --threads N sizes the worker pool of the --channel and --adaptive
// replays; output is identical at any thread count.
//
// --adaptive additionally replays a synthetic drifting-Zipf demand trace
// (popularity ranking reverses mid-run) against the planned program and
// against the adaptive controller (src/adaptive/), printing the hot-swap
// timeline and the static vs adaptive mean retrieval delay.
//
// --channel SPEC additionally replays a random-start retrieval workload
// against the planned program over the given erasure channel (the grammar
// of src/faults/channel_spec.h, e.g. bernoulli:p=0.1,seed=7 or
// gilbert:pgb=0.02,pbg=0.2+corrupt:p=0.01), printing per-file latency,
// reconstruction stall, and undecodable-rate metrics. --requests sets the
// retrieval attempts per file (default 200), --seed the workload seed
// (default 42); the channel's own seed lives in SPEC, and the whole replay
// is deterministic. With --adaptive, the same channel also drives the
// adaptive replay; --adaptive without --channel replays over
// bernoulli:p=0.02,seed=99.
//
// --metrics-out PATH streams periodic JSON-line snapshots of the replay
// (obs/snapshot.h; "-" = stdout) every --metrics-interval N slots
// (default: one program period). The stream is deterministic — identical
// at any thread count — and is what `bdisk_top` tails. With --adaptive, the static and adaptive replays append their
// own streams to the same file; the global metric registry is reset
// between the two, so each stream's registry line covers only its own
// replay.
//
// --trace-out PATH writes a Chrome trace-event JSON document (open in
// chrome://tracing or Perfetto; "-" = stdout) of the causal spans the
// replays capture (obs/trace.h): --trace-sample 1/N (or plain N) samples
// every N-th request by global index, anomalies (deadline misses,
// undecodables, and — with --trace-stall S — stalls >= S slots) are
// always traced, and --trace-flight K keeps only the last K spans per
// shard, dumped when an anomaly fires. The trace covers the --channel
// replay and, with --adaptive, both adaptive-experiment replays plus the
// controller's per-interval swap decisions. Deterministic: byte-identical
// at any thread count. `bdisk_trace` filters and summarizes the file.
//
// --store PATH materializes the planned program into a crash-safe
// persistent block store (src/store/) at PATH: deterministic per-file
// contents are dispersed, checksum-stamped, and committed, then one full
// broadcast period is served back FROM DISK and every coded block is
// re-read and verified bit-exact before the tool reports the store's
// stats. --store-bytes SIZE (byte-size grammar: 4096, 64KiB, 1MiB, ...)
// caps the device size; omitted, the device is sized to fit the program.
// An undersized cap surfaces the store's typed out-of-space error.
//
// --serve HOST:PORT broadcasts the planned program as real UDP datagrams
// (one per slot; wire format src/net/wire.h), paced by a token bucket at
// the spec's channel rate (--serve-bandwidth overrides; byte-size
// grammar). --serve-horizon N sets the slot count (default: the channel
// replay's horizon). With --channel, the datagrams pass through a
// FaultingSocket: the channel model's per-slot verdicts become deliberate
// drops and corruptions on the real wire.
//
// --listen HOST:PORT is the receiving side: it plans the same spec (for
// the program geometry and block size), binds the endpoint (port 0 =
// kernel-chosen, printed), tunes in mid-stream, reconstructs every file,
// and verifies the bytes against the spec's deterministic contents —
// exit status 0 iff every file reconstructed byte-exact.
//
// Example byte-domain spec:
//   channel 196608
//   file nav     bytes=16384 latency=0.5 faults=1
//   file weather bytes=8192  latency=2.0 faults=1
//
// Example slot-domain (generalized) spec:
//   gfile incidents blocks=2 latencies=12,14,16
//   gfile maps      blocks=8 latencies=150,170

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adaptive/adaptive_loop.h"
#include "bdisk/bandwidth.h"
#include "bdisk/block_size.h"
#include "bdisk/delay_analysis.h"
#include "bdisk/flat_builder.h"
#include "bdisk/pinwheel_builder.h"
#include "bdisk/spec_parser.h"
#include "common/random.h"
#include "faults/channel_spec.h"
#include "ida/dispersal.h"
#include "net/faulting_socket.h"
#include "net/udp_client.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "pinwheel/composite_scheduler.h"
#include "runtime/flags.h"
#include "runtime/thread_pool.h"
#include "sim/server.h"
#include "sim/simulation.h"
#include "store/block_device.h"
#include "store/block_store.h"

namespace {

using namespace bdisk::broadcast;  // NOLINT
using namespace bdisk::runtime;    // NOLINT
using bdisk::Status;

// The command line, parsed once by ParseOptions. Each default is the value
// an absent flag leaves.
struct Options {
  unsigned threads = 1;
  bool adaptive = false;
  std::unique_ptr<const bdisk::faults::ChannelModel> channel;
  std::uint64_t requests_per_file = 200;
  std::uint64_t workload_seed = 42;
  const char* metrics_out = nullptr;
  std::uint64_t metrics_interval = 0;  // Absent: one program period.
  const char* store_path = nullptr;
  std::uint64_t store_bytes = 0;  // Absent: size the device to the program.
  const char* trace_out = nullptr;
  // Capture policy; tracing is active iff trace_out is set.
  bdisk::obs::TraceOptions trace_options;
  std::optional<bdisk::net::Endpoint> serve;
  std::optional<bdisk::net::Endpoint> listen;
  std::uint64_t serve_bandwidth = 0;  // Absent: the spec's channel rate.
  std::uint64_t serve_horizon = 0;    // Absent: ReplayHorizon.
  const char* spec_path = nullptr;    // "-" = stdin.
};

// `--<name> N` with N > 0, or `fallback` when absent.
std::uint64_t ConsumePositiveFlag(int* argc, char** argv, const char* name,
                                  std::uint64_t fallback) {
  const char* token = OrExit(ConsumeStringFlagOnce(argc, argv, name));
  std::uint64_t value = fallback;
  if (token != nullptr && (!ParseUint64Token(token, &value) || value == 0)) {
    OrExit(Status::InvalidArgument(std::string("--") + name +
                                   " must be a positive integer, got '" +
                                   token + "'"));
  }
  return value;
}

// `--<name> HOST:PORT`, parsed when present.
std::optional<bdisk::net::Endpoint> ConsumeEndpointFlag(int* argc,
                                                        char** argv,
                                                        const char* name) {
  const char* token = OrExit(ConsumeStringFlagOnce(argc, argv, name));
  if (token == nullptr) return std::nullopt;
  auto endpoint = bdisk::net::ParseEndpoint(token);
  OrExit(endpoint.status().WithContext(std::string("--") + name));
  return *endpoint;
}

// Parses the command line; a usage error exits 2.
Options ParseOptions(int argc, char** argv) {
  Options o;
  o.threads = OrExit(ConsumeThreadsFlagOnce(&argc, argv));
  o.adaptive = OrExit(ConsumeBoolFlagOnce(&argc, argv, "adaptive"));
  if (const char* spec = OrExit(ConsumeStringFlagOnce(&argc, argv,
                                                      "channel"))) {
    auto channel = bdisk::faults::ParseChannelSpec(spec);
    OrExit(channel.status().WithContext("--channel"));
    o.channel = std::move(*channel);
  }
  o.requests_per_file =
      ConsumePositiveFlag(&argc, argv, "requests", o.requests_per_file);
  o.workload_seed =
      OrExit(ConsumeUintFlagOnce(&argc, argv, "seed", o.workload_seed));
  o.metrics_out = OrExit(ConsumeStringFlagOnce(&argc, argv, "metrics-out"));
  o.metrics_interval = ConsumePositiveFlag(&argc, argv, "metrics-interval", 0);
  o.store_path = OrExit(ConsumeStringFlagOnce(&argc, argv, "store"));
  o.store_bytes =
      OrExit(ConsumeByteSizeFlagOnce(&argc, argv, "store-bytes", 0));
  o.trace_out = OrExit(ConsumeStringFlagOnce(&argc, argv, "trace-out"));
  if (const char* sample = OrExit(ConsumeStringFlagOnce(&argc, argv,
                                                        "trace-sample"))) {
    // Accepted as "1/N" (the sampling-rate reading) or plain "N".
    const char* n = std::strncmp(sample, "1/", 2) == 0 ? sample + 2 : sample;
    if (!ParseUint64Token(n, &o.trace_options.sample_every) ||
        o.trace_options.sample_every == 0) {
      OrExit(Status::InvalidArgument(
          std::string("--trace-sample must be 1/N or N with positive N, "
                      "got '") +
          sample + "'"));
    }
  }
  o.trace_options.stall_threshold =
      ConsumePositiveFlag(&argc, argv, "trace-stall", 0);
  o.trace_options.flight_recorder_depth =
      ConsumePositiveFlag(&argc, argv, "trace-flight", 0);
  o.serve = ConsumeEndpointFlag(&argc, argv, "serve");
  o.listen = ConsumeEndpointFlag(&argc, argv, "listen");
  o.serve_bandwidth =
      OrExit(ConsumeByteSizeFlagOnce(&argc, argv, "serve-bandwidth", 0));
  o.serve_horizon =
      OrExit(ConsumeUintFlagOnce(&argc, argv, "serve-horizon", 0));
  OrExit(ExpectPositionals(argc, argv, 1),
         "usage: bdisk_planner [--threads N] [--adaptive] [--channel SPEC] "
         "[--requests N] [--seed S] "
         "[--metrics-out PATH] [--metrics-interval N] "
         "[--store PATH] [--store-bytes SIZE] "
         "[--trace-out PATH] [--trace-sample 1/N] [--trace-stall S] "
         "[--trace-flight K] [--serve HOST:PORT | --listen HOST:PORT] "
         "[--serve-bandwidth RATE] [--serve-horizon N] <spec-file | ->");
  o.spec_path = argv[1];

  const auto require = [](bool ok, const char* message) {
    if (!ok) OrExit(Status::InvalidArgument(message));
  };
  require(o.store_bytes == 0 || o.store_path != nullptr,
          "--store-bytes requires --store");
  const bool trace_tuned = o.trace_options.sample_every != 0 ||
                           o.trace_options.stall_threshold != 0 ||
                           o.trace_options.flight_recorder_depth != 0;
  require(o.trace_out != nullptr || !trace_tuned,
          "--trace-sample/--trace-stall/--trace-flight require --trace-out");
  require(o.trace_out == nullptr || o.channel != nullptr || o.adaptive,
          "--trace-out requires --channel or --adaptive (nothing to trace "
          "otherwise)");
  require(!o.serve || !o.listen,
          "--serve and --listen are exclusive (run one process per role)");
  require(o.serve || (o.serve_bandwidth == 0 && o.serve_horizon == 0),
          "--serve-bandwidth/--serve-horizon require --serve");
  require(o.metrics_out != nullptr || o.metrics_interval == 0,
          "--metrics-interval requires --metrics-out");
  return o;
}

// A workload spec resolved into what every mode runs on.
struct Plan {
  BuildResult build;
  // Bytes per coded block: the chosen block size, or a fixed 64 for
  // slot-domain specs, which have no byte size.
  std::size_t payload_bytes = 64;
  // The spec's channel rate in bytes/s: the default --serve pacing. 0 for
  // slot-domain specs, which model no byte rate (unpaced).
  std::uint64_t rate_bytes_per_sec = 0;
};

// Plans the broadcast program, printing the workload header on the way.
bdisk::Result<Plan> ResolvePlan(const WorkloadSpec& spec) {
  bdisk::pinwheel::CompositeScheduler scheduler;
  if (!spec.IsByteDomain()) {
    std::printf("slot-domain workload: %zu generalized files\n",
                spec.generalized_files.size());
    BDISK_ASSIGN_OR_RETURN(
        BuildResult build,
        BuildGeneralizedProgram(spec.generalized_files, scheduler));
    return Plan{std::move(build)};
  }
  std::printf("byte-domain workload: %zu files, channel %llu bytes/s\n",
              spec.byte_files.size(),
              static_cast<unsigned long long>(spec.channel_bytes_per_second));
  std::vector<std::uint64_t> ladder;
  if (spec.block_size != 0) ladder.push_back(spec.block_size);
  BDISK_ASSIGN_OR_RETURN(
      BlockSizeChoice choice,
      ChooseLargestFeasibleBlockSize(spec.byte_files,
                                     spec.channel_bytes_per_second,
                                     scheduler, std::move(ladder)));
  std::printf("block size: %llu bytes  =>  bandwidth %llu blocks/s\n",
              static_cast<unsigned long long>(choice.block_size),
              static_cast<unsigned long long>(
                  choice.bandwidth_blocks_per_second));
  return Plan{std::move(choice.build), choice.block_size,
              spec.channel_bytes_per_second};
}

// Room for every per-file tail (deadline or four data cycles) plus a
// generous start range of 50 periods: the --channel replay's horizon and
// the default --serve horizon. InvalidArgument past 2^32 - 1 slots, the
// longest horizon the event engine and the snapshot timeline take.
bdisk::Result<std::uint64_t> ReplayHorizon(const BroadcastProgram& program) {
  constexpr std::uint64_t kMaxHorizon =
      std::numeric_limits<std::uint32_t>::max();
  // Each term is clamped where it already fails the check, so the sum
  // cannot wrap.
  const std::uint64_t cycle = program.DataCycleLength();
  std::uint64_t tail = 4 * std::min(cycle, kMaxHorizon);
  for (const ProgramFile& pf : program.files()) {
    if (!pf.latency_slots.empty()) {
      tail = std::max(tail,
                      std::min(pf.latency_slots.front(), kMaxHorizon + 1));
    }
  }
  const std::uint64_t horizon =
      tail + 50 * std::min(program.period(), kMaxHorizon) + 1;
  if (horizon > kMaxHorizon) {
    return Status::InvalidArgument(
        "replay horizon passes 2^32 - 1 slots: 4 data cycles of " +
        std::to_string(cycle) + " slots (or the longest first deadline) " +
        "plus 50 periods of " + std::to_string(program.period()) + " slots");
  }
  return horizon;
}

// Deterministic per-file contents (exactly m payloads each): the same
// bytes for the same spec on every run, so --store re-materializations are
// byte-identical and a --listen receiver can verify a --serve broadcast
// from a different process (or machine) without a side channel.
std::vector<std::vector<std::uint8_t>> DeterministicContents(
    const BroadcastProgram& planned, std::size_t payload_bytes) {
  std::vector<std::vector<std::uint8_t>> contents(planned.file_count());
  for (FileIndex f = 0; f < planned.file_count(); ++f) {
    bdisk::Rng rng(0x5702Eull + f);
    contents[f].resize(planned.files()[f].m * payload_bytes);
    for (auto& b : contents[f]) {
      b = static_cast<std::uint8_t>(rng.Uniform(256));
    }
  }
  return contents;
}

// Prints the plan, then runs each selected mode on it in a fixed order.
class Planner {
 public:
  explicit Planner(const Options& options) : options_(options) {
    if (options.threads > 1) {
      pool_ = std::make_unique<ThreadPool>(options.threads);
    }
  }

  int Run(const Plan& plan) {
    PrintProgram(plan.build);
    using Mode = Status (Planner::*)(const Plan&);
    const struct {
      bool selected;
      Mode run;
      const char* name;
    } modes[] = {
        {options_.store_path != nullptr, &Planner::MaterializeStore, "store"},
        {options_.channel != nullptr, &Planner::ReplayChannel,
         "channel replay"},
        {options_.adaptive, &Planner::ReplayAdaptive, "adaptive replay"},
        {options_.serve.has_value(), &Planner::ServeUdp, "serve"},
        {options_.listen.has_value(), &Planner::ListenUdp, "listen"},
        {options_.trace_out != nullptr, &Planner::EmitTrace, "trace output"},
    };
    for (const auto& mode : modes) {
      if (!mode.selected) continue;
      const Status status = (this->*mode.run)(plan);
      if (!status.ok()) {
        std::fprintf(stderr, "%s: %s\n", mode.name,
                     status.ToString().c_str());
        return 1;
      }
    }
    return 0;
  }

 private:
  void PrintProgram(const BuildResult& result) const;
  Status MaterializeStore(const Plan& plan);
  Status ReplayChannel(const Plan& plan);
  Status ReplayAdaptive(const Plan& plan);
  Status ServeUdp(const Plan& plan);
  Status ListenUdp(const Plan& plan);
  Status EmitTrace(const Plan& plan);
  Status EmitMetricsStream(const bdisk::obs::Timeline& timeline);

  std::uint64_t SnapshotInterval(const BroadcastProgram& program) const {
    return options_.metrics_interval > 0 ? options_.metrics_interval
                                         : program.period();
  }

  const Options& options_;
  std::unique_ptr<ThreadPool> pool_;
  // The first metrics stream truncates the file; later runs (e.g. the two
  // --adaptive replays) append to it.
  bool metrics_append_ = false;
  // Sinks accumulated by the replays, written as one Chrome trace by
  // EmitTrace (one process lane group per replay).
  std::vector<std::pair<std::string, std::unique_ptr<bdisk::obs::TraceSink>>>
      trace_tracks_;
};

// Streams `timeline` (plus the global registry) to --metrics-out, then
// resets the registry so the next stream's registry line covers only its
// own run — without this the phase timers of an earlier replay (e.g. the
// static half of --adaptive) bleed into every later stream.
Status Planner::EmitMetricsStream(const bdisk::obs::Timeline& timeline) {
  BDISK_RETURN_NOT_OK(bdisk::obs::WriteSnapshotStream(
      timeline, &bdisk::obs::GlobalRegistry(), options_.metrics_out,
      metrics_append_));
  metrics_append_ = true;
  bdisk::obs::GlobalRegistry().Reset();
  return Status::OK();
}

// Writes the accumulated trace tracks to --trace-out as one Chrome
// trace-event JSON document.
Status Planner::EmitTrace(const Plan&) {
  std::vector<bdisk::obs::TraceTrack> tracks;
  for (const auto& [label, sink] : trace_tracks_) {
    tracks.push_back({sink.get(), label});
  }
  std::vector<std::pair<std::string, std::string>> metadata;
  if (options_.channel != nullptr) {
    metadata.emplace_back("channel", options_.channel->Describe());
  }
  return bdisk::obs::WriteChromeTrace(tracks, metadata, options_.trace_out);
}

void Planner::PrintProgram(const BuildResult& result) const {
  const BroadcastProgram& p = result.program;
  std::printf("\nprogram: period %llu slots, data cycle %llu, utilization "
              "%.0f%%, scheduled density %.3f\n",
              static_cast<unsigned long long>(p.period()),
              static_cast<unsigned long long>(p.DataCycleLength()),
              100.0 * p.Utilization(), result.scheduled_density);
  DelayAnalyzer analyzer(p);
  std::printf("%-16s %4s %4s %10s %8s  worst-case latency per fault level\n",
              "file", "m", "n", "slots/per", "max gap");
  for (FileIndex f = 0; f < p.file_count(); ++f) {
    const ProgramFile& pf = p.files()[f];
    std::string col;
    for (std::size_t j = 0; j < pf.latency_slots.size(); ++j) {
      auto latency = analyzer.WorstCaseLatency(
          f, static_cast<std::uint32_t>(j), ClientModel::kIda);
      if (latency.ok()) {
        col += " " + std::to_string(*latency) + "<=" +
               std::to_string(pf.latency_slots[j]);
      }
    }
    std::printf("%-16s %4u %4u %10llu %8llu %s\n", pf.name.c_str(), pf.m,
                pf.n, static_cast<unsigned long long>(p.CountOf(f)),
                static_cast<unsigned long long>(p.MaxGapOf(f)), col.c_str());
  }
  if (!result.conversions.empty()) {
    std::printf("\npinwheel-algebra conversions:\n");
    for (std::size_t f = 0; f < result.conversions.size(); ++f) {
      const auto& conv = result.conversions[f];
      std::printf("  %-16s %-26s -> %-8s density %.4f (lower bound %.4f)\n",
                  p.files()[f].name.c_str(), conv.bc.ToString().c_str(),
                  conv.best().strategy.c_str(), conv.best().density(),
                  conv.density_lower_bound);
    }
  }
}

// --store: materialize the planned program into a crash-safe persistent
// block store, serve one full period back from disk, and re-read every
// coded block bit-exact before reporting the store's stats.
Status Planner::MaterializeStore(const Plan& plan) {
  namespace store = bdisk::store;
  constexpr std::size_t kDeviceBlock = 4096;
  const BroadcastProgram& planned = plan.build.program;
  const std::size_t payload_bytes = plan.payload_bytes;
  const std::vector<std::vector<std::uint8_t>> contents =
      DeterministicContents(planned, payload_bytes);

  std::uint64_t device_blocks = options_.store_bytes / kDeviceBlock;
  if (options_.store_bytes == 0) {
    device_blocks = store::BlockStore::kFirstDataBlock;
    std::uint64_t catalog_bytes = 8;
    for (const ProgramFile& pf : planned.files()) {
      device_blocks +=
          pf.n * ((payload_bytes + kDeviceBlock - 1) / kDeviceBlock);
      catalog_bytes += 28 + pf.n * 12;
    }
    device_blocks +=
        2 * ((catalog_bytes + kDeviceBlock - 1) / kDeviceBlock) + 16;
  }

  std::remove(options_.store_path);
  BDISK_ASSIGN_OR_RETURN(auto device,
                         store::FileBlockDevice::Create(
                             options_.store_path, kDeviceBlock, device_blocks));
  BDISK_ASSIGN_OR_RETURN(std::unique_ptr<store::BlockStore> st,
                         store::BlockStore::Format(std::move(device)));
  BDISK_ASSIGN_OR_RETURN(
      auto server, bdisk::sim::BroadcastServer::CreateDiskBacked(
                       bdisk::sim::EpochSchedule::Single(planned), contents,
                       payload_bytes, st.get()));

  // Serve one full period from disk, then re-read and re-verify every
  // cataloged block and reconstruct each file from its first m blocks.
  for (std::uint64_t t = 0; t < planned.period(); ++t) {
    BDISK_RETURN_NOT_OK(server.FetchTransmission(t).status().WithContext(
        "slot " + std::to_string(t)));
  }
  for (FileIndex f = 0; f < planned.file_count(); ++f) {
    const ProgramFile& pf = planned.files()[f];
    std::vector<bdisk::ida::Block> first_m;
    for (std::uint32_t k = 0; k < pf.n; ++k) {
      auto block = st->ReadCodedBlock(f, 0, k);
      BDISK_RETURN_NOT_OK(block.status().WithContext(
          pf.name + " block " + std::to_string(k)));
      if (first_m.size() < pf.m) first_m.push_back(std::move(*block));
    }
    BDISK_ASSIGN_OR_RETURN(
        auto engine,
        bdisk::ida::Dispersal::Create(pf.m, pf.n, payload_bytes));
    auto data = engine.Reconstruct(first_m);
    if (!data.ok() || *data != contents[f]) {
      return Status::DataLoss(pf.name +
                              " did not reconstruct to the bytes written");
    }
  }
  std::printf("\nstore: materialized to %s and verified (one period served "
              "from disk, every block re-read bit-exact)\n  %s\n",
              options_.store_path, st->Stats().ToString().c_str());
  return Status::OK();
}

// --channel replay: a random-start retrieval workload against the planned
// program over the parsed erasure channel, surfacing the
// reliability/latency frontier of the chosen (n, m) redundancy.
Status Planner::ReplayChannel(const Plan& plan) {
  const BroadcastProgram& planned = plan.build.program;
  BDISK_ASSIGN_OR_RETURN(const std::uint64_t horizon, ReplayHorizon(planned));
  bdisk::sim::Simulator simulator(planned, *options_.channel, horizon);
  bdisk::sim::WorkloadConfig config;
  config.requests_per_file = options_.requests_per_file;
  config.seed = options_.workload_seed;
  std::unique_ptr<bdisk::obs::Timeline> timeline;
  if (options_.metrics_out != nullptr) {
    timeline = std::make_unique<bdisk::obs::Timeline>(
        SnapshotInterval(planned), horizon);
  }
  std::unique_ptr<bdisk::obs::TraceSink> trace;
  if (options_.trace_out != nullptr) {
    trace = std::make_unique<bdisk::obs::TraceSink>(options_.trace_options);
  }
  BDISK_ASSIGN_OR_RETURN(
      const auto metrics,
      simulator.RunWorkloadEvented(config, pool_.get(), timeline.get(),
                                   trace.get()));
  if (timeline != nullptr) BDISK_RETURN_NOT_OK(EmitMetricsStream(*timeline));
  if (trace != nullptr) {
    trace_tracks_.emplace_back("channel replay", std::move(trace));
  }
  std::printf("\nchannel replay (event engine): %s over %llu slots "
              "(%llu faulty), %llu requests/file, workload seed %llu\n",
              options_.channel->Describe().c_str(),
              static_cast<unsigned long long>(horizon),
              static_cast<unsigned long long>(simulator.CorruptedSlotCount()),
              static_cast<unsigned long long>(options_.requests_per_file),
              static_cast<unsigned long long>(options_.workload_seed));
  std::printf("%s", metrics.ToString().c_str());
  std::printf("overall: mean latency %.2f slots, mean stall %.2f slots, "
              "undecodable rate %.4f, miss rate %.4f\n",
              metrics.OverallMeanLatency(), metrics.OverallMeanStall(),
              metrics.OverallUndecodableRate(), metrics.OverallMissRate());
  return Status::OK();
}

// --adaptive replay: a drifting-Zipf demand trace (ranking reverses
// mid-run) against the planned program (static) and against the adaptive
// controller re-optimizing over the same file population.
Status Planner::ReplayAdaptive(const Plan& plan) {
  const BroadcastProgram& planned = plan.build.program;
  std::vector<FlatFileSpec> population;
  for (const ProgramFile& pf : planned.files()) {
    population.push_back({pf.name, pf.m, pf.n, pf.latency_slots});
  }

  bdisk::adaptive::DriftingZipfWorkload workload;
  workload.requests = 500 * planned.file_count();
  workload.theta = 0.95;
  workload.arrival_horizon = 300 * planned.period();
  workload.flip_slot = workload.arrival_horizon / 2;
  workload.seed = 7;
  const std::uint64_t interval = 25 * planned.period();

  const std::uint64_t snapshot_interval =
      options_.metrics_out != nullptr ? SnapshotInterval(planned) : 0;
  // Streams are emitted per replay through the experiment's callback, so
  // the registry reset in EmitMetricsStream lands *between* the static
  // and adaptive runs — each stream's registry line is its own run's.
  const auto on_replay = [this](const bdisk::obs::Timeline& timeline, bool) {
    return EmitMetricsStream(timeline);
  };
  const bdisk::obs::TraceOptions* trace_options =
      options_.trace_out != nullptr ? &options_.trace_options : nullptr;
  const bdisk::faults::BernoulliChannel default_channel(0.02, 99);
  BDISK_ASSIGN_OR_RETURN(
      auto replay,
      bdisk::adaptive::RunAdaptiveExperiment(
          population, workload, interval,
          options_.channel != nullptr ? *options_.channel : default_channel,
          pool_.get(), &planned, snapshot_interval, trace_options,
          on_replay));
  if (replay.static_trace != nullptr) {
    trace_tracks_.emplace_back("static replay",
                               std::move(replay.static_trace));
  }
  if (replay.adaptive_trace != nullptr) {
    trace_tracks_.emplace_back("adaptive replay",
                               std::move(replay.adaptive_trace));
  }
  std::printf("\nadaptive replay: Zipf(%.2f) demand over %llu slots, "
              "ranking reversed at slot %llu, %llu requests, "
              "re-optimization every %llu slots\n",
              workload.theta,
              static_cast<unsigned long long>(workload.arrival_horizon),
              static_cast<unsigned long long>(workload.flip_slot),
              static_cast<unsigned long long>(workload.requests),
              static_cast<unsigned long long>(interval));
  std::printf("  hot swaps: %zu\n", replay.swaps);
  for (std::size_t e = 1; e < replay.schedule.epoch_count(); ++e) {
    const auto& epoch = replay.schedule.epochs()[e];
    std::printf("    epoch %zu from slot %llu (period %llu slots)\n", e,
                static_cast<unsigned long long>(epoch.start_slot),
                static_cast<unsigned long long>(epoch.program.period()));
  }
  const double s = replay.static_metrics.OverallMeanLatency();
  const double a = replay.adaptive_metrics.OverallMeanLatency();
  std::printf("  mean retrieval delay: static %.1f slots, adaptive %.1f "
              "slots (%+.1f%%)\n",
              s, a, 100.0 * (a - s) / s);
  return Status::OK();
}

// --serve: broadcast the planned program as real UDP datagrams — one per
// slot, paced by a token bucket at the spec's channel rate (or the
// --serve-bandwidth override). With --channel, the datagrams pass through
// a FaultingSocket first: the channel model's per-slot verdicts become
// deliberately dropped or corrupted packets on the real wire.
Status Planner::ServeUdp(const Plan& plan) {
  namespace net = bdisk::net;
  const BroadcastProgram& planned = plan.build.program;
  const net::Endpoint& endpoint = *options_.serve;
  BDISK_ASSIGN_OR_RETURN(
      auto server,
      bdisk::sim::BroadcastServer::Create(
          planned, DeterministicContents(planned, plan.payload_bytes),
          plan.payload_bytes));
  BDISK_ASSIGN_OR_RETURN(auto socket, net::UdpSocket::Open());
  net::SocketSink socket_sink(&socket, endpoint);
  std::unique_ptr<net::FaultingSocket> faulting;
  net::WireSink* sink = &socket_sink;
  if (options_.channel != nullptr) {
    faulting = std::make_unique<net::FaultingSocket>(options_.channel.get(),
                                                     &socket_sink);
    sink = faulting.get();
  }
  net::UdpServerOptions serve;
  serve.horizon = options_.serve_horizon;
  if (serve.horizon == 0) {
    BDISK_ASSIGN_OR_RETURN(serve.horizon, ReplayHorizon(planned));
  }
  // Pace at the spec's modeled channel rate unless overridden: the wire
  // then carries exactly the bandwidth the plan assumed. 0 = as fast as
  // the kernel accepts.
  serve.bandwidth_bytes_per_sec = options_.serve_bandwidth != 0
                                      ? options_.serve_bandwidth
                                      : plan.rate_bytes_per_sec;
  std::printf("\nserving %llu slots to %s:%u at %llu bytes/s%s\n",
              static_cast<unsigned long long>(serve.horizon),
              endpoint.host.c_str(), endpoint.port,
              static_cast<unsigned long long>(serve.bandwidth_bytes_per_sec),
              options_.channel != nullptr ? " (channel faults injected)"
                                          : "");
  std::fflush(stdout);
  BDISK_ASSIGN_OR_RETURN(const auto stats,
                         net::ServeBroadcast(&server, sink, serve));
  const double wall_s = static_cast<double>(stats.wall_ns) / 1e9;
  std::printf("served: %llu block + %llu idle + %llu end datagrams, "
              "%llu bytes in %.2fs (%.0f bytes/s)\n",
              static_cast<unsigned long long>(stats.block_datagrams),
              static_cast<unsigned long long>(stats.idle_datagrams),
              static_cast<unsigned long long>(stats.end_datagrams),
              static_cast<unsigned long long>(stats.bytes), wall_s,
              wall_s > 0 ? static_cast<double>(stats.bytes) / wall_s : 0.0);
  if (faulting != nullptr) {
    std::printf("channel on the wire: %llu dropped, %llu corrupted, "
                "%llu forwarded\n",
                static_cast<unsigned long long>(faulting->dropped()),
                static_cast<unsigned long long>(faulting->corrupted()),
                static_cast<unsigned long long>(faulting->forwarded()));
  }
  if (socket_sink.kernel_dropped() > 0) {
    std::printf("note: %llu datagrams refused by the local send buffer\n",
                static_cast<unsigned long long>(
                    socket_sink.kernel_dropped()));
  }
  return Status::OK();
}

// --listen: tune in to a broadcast of this same spec (mid-stream join is
// fine — blocks are self-identifying), reconstruct every file, and verify
// the bytes against the spec's deterministic contents.
Status Planner::ListenUdp(const Plan& plan) {
  namespace net = bdisk::net;
  const BroadcastProgram& planned = plan.build.program;
  net::UdpClientOptions listen;
  listen.bind_host = options_.listen->host;
  listen.port = options_.listen->port;
  listen.block_size = plan.payload_bytes;
  BDISK_ASSIGN_OR_RETURN(auto client, net::UdpClient::Create(listen));
  for (FileIndex f = 0; f < planned.file_count(); ++f) {
    net::WireSession session;
    session.file = f;
    session.m = planned.files()[f].m;
    session.n = planned.files()[f].n;
    client.AddSession(session);  // No start slot: join mid-stream.
  }
  std::printf("\nlistening on %s:%u for %zu files...\n",
              listen.bind_host.c_str(), client.bound_port(),
              planned.file_count());
  std::fflush(stdout);
  BDISK_ASSIGN_OR_RETURN(const auto results, client.Run());
  const auto expected = DeterministicContents(planned, plan.payload_bytes);
  const auto& stats = client.stats();
  // A wake-up is a poll(2) return or a timed drain.
  const std::uint64_t wakeups = stats.poll_wakeups + stats.timed_drains;
  std::printf("heard %llu datagrams (%llu blocks, %llu idle), %.2f per "
              "wake-up (%llu poll(2), %llu timed drains, %llu empty)%s%s\n",
              static_cast<unsigned long long>(stats.datagrams),
              static_cast<unsigned long long>(stats.block_datagrams),
              static_cast<unsigned long long>(stats.idle_datagrams),
              wakeups > 0 ? static_cast<double>(stats.datagrams) /
                                static_cast<double>(wakeups)
                          : 0.0,
              static_cast<unsigned long long>(stats.poll_wakeups),
              static_cast<unsigned long long>(stats.timed_drains),
              static_cast<unsigned long long>(stats.empty_drains),
              stats.end_seen ? ", end of stream" : "",
              stats.timed_out ? ", timed out" : "");
  std::size_t failed = 0;
  for (std::size_t f = 0; f < results.size(); ++f) {
    const auto& r = results[f];
    if (!r.session.completed) {
      std::printf("  %-16s INCOMPLETE (tuned in at slot %llu)\n",
                  planned.files()[f].name.c_str(),
                  static_cast<unsigned long long>(r.start_slot));
      ++failed;
      continue;
    }
    const bool byte_exact = r.session.data == expected[f];
    if (!byte_exact) ++failed;
    std::printf("  %-16s reconstructed in %llu slots from slot %llu "
                "(%zu bytes, %s)\n",
                planned.files()[f].name.c_str(),
                static_cast<unsigned long long>(r.session.latency),
                static_cast<unsigned long long>(r.start_slot),
                r.session.data.size(),
                byte_exact ? "byte-exact" : "MISMATCH vs spec contents");
  }
  if (failed > 0) {
    return Status::DataLoss(std::to_string(failed) +
                            " file(s) not reconstructed byte-exact");
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  std::ostringstream text;
  if (std::strcmp(options.spec_path, "-") == 0) {
    text << std::cin.rdbuf();
  } else {
    std::ifstream in(options.spec_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", options.spec_path);
      return 2;
    }
    text << in.rdbuf();
  }
  auto spec = ParseWorkloadSpec(text.str());
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  auto plan = ResolvePlan(*spec);
  if (!plan.ok()) {
    // A malformed spec is a usage error, like a parse error; a well-formed
    // workload that no program can carry is infeasible.
    const bool malformed = plan.status().IsInvalidArgument();
    std::fprintf(stderr, "%s: %s\n", malformed ? "error" : "infeasible",
                 plan.status().ToString().c_str());
    return malformed ? 2 : 1;
  }
  return Planner(options).Run(*plan);
}
