// update_churn: a versioned broadcast whose files are re-dispersed and
// committed as they are updated, read back from the store for every slot,
// and retrieved by clients that restart when a newer version appears.
//
// Set-up plans ~12 files with 32 KiB blocks through the pinwheel planner,
// formats a BlockStore on a MemBlockDevice (its Sync is a no-op, so the
// flush policy costs nothing) and starts the server; every round sets up
// afresh. A round walks the slots once through
// VersionedBroadcastServer::TransmissionAt, which disperses and commits
// each (file, version) on first sight, one commit per version, and
// offers each block to the live ReconstructingClients of its file.
// Retrievals arrive on a seeded Zipf schedule; each completed retrieval
// is reconstructed and compared byte for byte with ContentsOf(file,
// version). Single-threaded.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bdisk/block_size.h"
#include "bdisk/spec_parser.h"
#include "common/random.h"
#include "common/zipf.h"
#include "ida/dispersal.h"
#include "pinwheel/composite_scheduler.h"
#include "sim/client.h"
#include "sim/versioned.h"
#include "store/block_store.h"
#include "workloads.h"

namespace pipebench {
namespace {

namespace broadcast = bdisk::broadcast;
namespace ida = bdisk::ida;
namespace sim = bdisk::sim;
namespace store = bdisk::store;
using bdisk::Result;
using bdisk::Status;

constexpr std::uint64_t kBlockSize = 32768;
constexpr std::uint32_t kFiles = 12;
constexpr std::size_t kSectorBytes = 4096;
constexpr std::uint32_t kRetrievals = 512;

// Three latency classes; fault tolerance alternates 1, 2; 200 blocks/s
// gives density ~0.5. Every seed plans the same program, so seeds vary
// only the retrievals and the contents.
std::string ChurnSpecText() {
  static constexpr double kLatencySeconds[3] = {0.5, 1.0, 1.5};
  static constexpr std::uint64_t kBlocks[3] = {4, 6, 8};
  std::ostringstream out;
  out << "# update_churn\nchannel " << 200 * kBlockSize << "\nblocksize "
      << kBlockSize << "\n";
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    const std::uint32_t cls = i % 3;
    out << "file u" << i << " bytes=" << kBlocks[cls] * kBlockSize
        << " latency=" << kLatencySeconds[cls] << " faults=" << 1 + i % 2
        << "\n";
  }
  return out.str();
}

struct Retrieval {
  broadcast::FileIndex file = 0;
  std::uint64_t start = 0;
};

/// A formatted store and a server over it whose files' initial versions
/// are dispersed, stamped and committed (one commit per file).
struct ChurnState {
  std::unique_ptr<store::BlockStore> store;
  CountingDevice* device = nullptr;  // owned by `store`
  std::optional<sim::VersionedBroadcastServer> server;
};

struct ChurnSetup {
  broadcast::BroadcastProgram program;
  std::size_t block_size = 0;
  std::vector<std::uint64_t> intervals;  // slots, per file
  std::vector<Retrieval> retrievals;     // ascending start
  std::uint64_t horizon = 0;
  std::uint64_t device_blocks = 0;
  std::uint64_t content_seed = 0;
  /// First slot of each file in period 0.
  std::vector<std::uint64_t> first_slots;
  double plan_ms = 0.0;
  /// Starting the server: store format plus the initial versions.
  double start_ms = 0.0;
  /// Device write time of that start.
  double commit_ms = 0.0;
  /// The started server a round walks (once: every round sets up anew).
  ChurnState state;
};

Result<ChurnState> StartServer(const ChurnSetup& s) {
  ChurnState state;
  auto counting = std::make_unique<CountingDevice>(
      std::make_unique<store::MemBlockDevice>(kSectorBytes, s.device_blocks));
  state.device = counting.get();
  BDISK_ASSIGN_OR_RETURN(state.store,
                         store::BlockStore::Format(std::move(counting)));
  sim::VersionedServerOptions options;
  options.block_size = s.block_size;
  options.update_interval_slots = s.intervals;
  options.content_seed = s.content_seed;
  options.store = state.store.get();
  BDISK_ASSIGN_OR_RETURN(
      sim::VersionedBroadcastServer server,
      sim::VersionedBroadcastServer::Create(s.program, options));
  state.server.emplace(std::move(server));
  for (const std::uint64_t t : s.first_slots) {
    BDISK_RETURN_NOT_OK(state.server->TransmissionAt(t).status());
  }
  return state;
}

Result<ChurnSetup> SetUpChurn(const Options& options) {
  ChurnSetup s;
  const std::uint64_t t_plan = NowNs();
  BDISK_ASSIGN_OR_RETURN(broadcast::WorkloadSpec spec,
                         broadcast::ParseWorkloadSpec(ChurnSpecText()));
  const bdisk::pinwheel::CompositeScheduler scheduler;
  BDISK_ASSIGN_OR_RETURN(
      broadcast::BlockSizeChoice choice,
      broadcast::ChooseLargestFeasibleBlockSize(
          spec.byte_files, spec.channel_bytes_per_second, scheduler,
          {spec.block_size}));
  s.plan_ms = static_cast<double>(NowNs() - t_plan) / 1e6;
  s.program = std::move(choice.build.program);
  s.block_size = choice.block_size;
  s.content_seed = options.seed;
  const std::uint64_t period = s.program.period();
  const std::size_t files = s.program.file_count();

  // Update intervals: 1, 2, 3, 4 periods in turn over the files (fixed, so
  // the Zipf-popular files update at the same rate under every seed).
  for (std::size_t f = 0; f < files; ++f) {
    s.intervals.push_back((1 + f % 4) * period);
  }

  // Retrievals: a Zipf(0.95) file mix arriving over the window that leaves
  // every retrieval six periods to finish. Retrieval g takes the file at
  // Zipf quantile (g + 0.5) / count, so every seed requests each file
  // equally often, and a seeded stratified start slot, so the seed sets
  // when.
  std::uint64_t max_latency = 0;
  for (const broadcast::ProgramFile& pf : s.program.files()) {
    for (const std::uint64_t d : pf.latency_slots) {
      max_latency = std::max(max_latency, d);
    }
  }
  const std::uint64_t tail = 6 * period + 2 * max_latency;
  s.horizon = 2 * tail;
  const bdisk::ZipfDistribution zipf(files, 0.95);
  const std::vector<std::uint64_t> starts =
      StratifiedStarts(kRetrievals, s.horizon - tail, options.seed);
  for (std::uint64_t g = 0; g < kRetrievals; ++g) {
    Retrieval r;
    r.file = static_cast<broadcast::FileIndex>(
        zipf.Sample((static_cast<double>(g) + 0.5) /
                    static_cast<double>(kRetrievals)));
    r.start = starts[g];
    s.retrievals.push_back(r);
  }
  std::stable_sort(s.retrievals.begin(), s.retrievals.end(),
                   [](const Retrieval& a, const Retrieval& b) {
                     return a.start < b.start;
                   });

  // The server never erases a version: size the device for every version
  // the walk can create, plus catalog generations.
  std::uint64_t data_sectors = 0;
  const std::uint64_t per_block = (s.block_size + kSectorBytes - 1) /
                                  kSectorBytes;
  for (std::size_t f = 0; f < files; ++f) {
    const std::uint64_t versions = s.horizon / s.intervals[f] + 2;
    data_sectors += versions * s.program.files()[f].n * per_block;
  }
  s.device_blocks = data_sectors + 1024;

  // The first slot of each file in period 0: fetching it makes the server
  // disperse, stamp and commit the file's initial version.
  std::vector<bool> seen(files, false);
  for (std::uint64_t t = 0; t < period; ++t) {
    const auto tx = s.program.TransmissionAt(t);
    if (tx.has_value() && !seen[tx->file]) {
      seen[tx->file] = true;
      s.first_slots.push_back(t);
    }
  }

  // Start the server: the state the round starts from.
  const std::uint64_t t_start = NowNs();
  BDISK_ASSIGN_OR_RETURN(s.state, StartServer(s));
  s.start_ms = static_cast<double>(NowNs() - t_start) / 1e6;
  s.commit_ms = static_cast<double>(s.state.device->counts().write_ns) / 1e6;
  return s;
}

/// Counters of one round.
struct ChurnRound {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t slots = 0;
  std::uint64_t ops = 0;  // served blocks
  std::uint64_t versions = 0;
  std::uint64_t commit_fetch_ns = 0;
  std::uint64_t offers = 0;
  std::uint64_t useful_offers = 0;
  std::uint64_t crc_offers = 0;
  std::uint64_t checksum_rejects = 0;
  std::uint64_t restarts = 0;
  std::uint64_t stale_rejects = 0;
  std::uint64_t failed = 0;
  std::uint64_t stamped_blocks = 0;
  std::uint64_t user_bytes = 0;
  std::uint64_t catalog_entries = 0;
  DeviceCounts device;
  std::vector<std::uint64_t> delays;
  std::vector<std::uint64_t> ages;
  /// (file, version) of every version the walk created, in order.
  std::vector<std::pair<broadcast::FileIndex, std::uint64_t>> created;
};

/// Walks the slots once on the set-up's freshly started server.
Result<ChurnRound> RunChurnRound(ChurnSetup* setup, Tracer* tracer,
                                 std::vector<std::uint32_t>* slot_samples) {
  // Untimed prelude: fresh clients.
  const ChurnSetup& s = *setup;
  store::BlockStore* block_store = setup->state.store.get();
  CountingDevice* device = setup->state.device;
  const sim::VersionedBroadcastServer& server = *setup->state.server;
  std::vector<sim::ReconstructingClient> clients;
  clients.reserve(s.retrievals.size());
  for (const Retrieval& r : s.retrievals) {
    const broadcast::ProgramFile& pf = s.program.files()[r.file];
    clients.emplace_back(static_cast<ida::FileId>(r.file), pf.m, pf.n,
                         s.block_size);
    clients.back().set_require_checksums(true);
  }
  std::vector<std::vector<std::size_t>> live(s.program.file_count());
  std::map<std::pair<broadcast::FileIndex, std::uint64_t>,
           std::vector<std::uint8_t>>
      truth;
  ChurnRound round;
  round.delays.assign(s.retrievals.size(), 0);
  round.ages.assign(s.retrievals.size(), 0);
  std::vector<bool> done(s.retrievals.size(), false);
  device->ResetCounts();
  device->set_tracer(tracer);

  std::uint64_t harness_ns = 0, harness_cpu_ns = 0;
  std::size_t next = 0;
  std::vector<std::size_t> completed;
  const std::uint64_t cpu0 = ThreadCpuNs();
  const std::uint64_t t0 = NowNs();
  for (std::uint64_t t = 0; t < s.horizon; ++t) {
    const std::uint64_t slot0 = NowNs();
    std::uint64_t slot_harness_ns = 0;
    ++round.slots;
    while (next < s.retrievals.size() && s.retrievals[next].start == t) {
      live[s.retrievals[next].file].push_back(next);
      ++next;
    }
    const std::uint64_t generation = block_store->generation();
    std::optional<ida::Block> block;
    {
      ScopedSpan span(tracer, Layer::kFetch, t);
      BDISK_ASSIGN_OR_RETURN(block, server.TransmissionAt(t));
    }
    if (block_store->generation() != generation && block.has_value()) {
      ++round.versions;
      round.commit_fetch_ns += NowNs() - slot0;
      round.created.emplace_back(block->header.file_id, block->header.version);
      round.stamped_blocks += block->header.total_blocks;
      round.user_bytes += block->header.total_blocks * s.block_size;
    }
    if (block.has_value()) {
      ++round.ops;
      const auto file = static_cast<broadcast::FileIndex>(block->header.file_id);
      completed.clear();
      {
        ScopedSpan span(tracer, Layer::kOffer, t);
        for (const std::size_t i : live[file]) {
          const sim::OfferOutcome outcome = clients[i].OfferEx(*block);
          ++round.offers;
          if (outcome != sim::OfferOutcome::kWrongFile) ++round.crc_offers;
          if (outcome == sim::OfferOutcome::kAccepted ||
              outcome == sim::OfferOutcome::kCompleted) {
            ++round.useful_offers;
          }
          if (sim::OfferSatisfied(outcome)) completed.push_back(i);
        }
      }
      for (const std::size_t i : completed) {
        std::vector<std::uint8_t> data;
        {
          ScopedSpan span(tracer, Layer::kReconstruct, i);
          BDISK_ASSIGN_OR_RETURN(data, clients[i].Reconstruct());
        }
        // Harness: the byte-exact check, left out of every timing.
        const std::uint64_t h0 = NowNs();
        const std::uint64_t hc0 = ThreadCpuNs();
        const std::uint64_t version = block->header.version;
        auto key = std::make_pair(file, version);
        auto it = truth.find(key);
        if (it == truth.end()) {
          it = truth.emplace(key, server.ContentsOf(file, version)).first;
        }
        if (data != it->second) ++round.failed;
        round.delays[i] = t - s.retrievals[i].start + 1;
        round.ages[i] = t - server.VersionStartSlot(file, version) + 1;
        done[i] = true;
        live[file].erase(std::find(live[file].begin(), live[file].end(), i));
        const std::uint64_t h = NowNs() - h0;
        slot_harness_ns += h;
        harness_ns += h;
        harness_cpu_ns += ThreadCpuNs() - hc0;
      }
    }
    // Idle slots serve nothing; the deadline metric samples served slots.
    if (slot_samples != nullptr && block.has_value()) {
      slot_samples->push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(
          NowNs() - slot0 - slot_harness_ns, 0xFFFFFFFFu)));
    }
  }
  round.wall_ns = NowNs() - t0 - harness_ns;
  round.cpu_ns = ThreadCpuNs() - cpu0 - harness_cpu_ns;
  device->set_tracer(nullptr);
  round.device = device->counts();
  round.catalog_entries = block_store->catalog().size();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (!done[i]) ++round.failed;
    round.checksum_rejects += clients[i].checksum_rejected();
    round.restarts += clients[i].restarts();
    round.stale_rejects += clients[i].stale_rejected();
  }
  return round;
}

}  // namespace

Report RunChurn(const Options& options, Deterministic* out) {
  Report report;
  std::vector<double> setup_s;
  std::optional<ChurnSetup> setup;
  std::vector<double> ops_per_s, cpu_per_op, traced_cpu_per_op;
  std::vector<std::uint32_t> slot_samples;
  SlotTimes slot_times;
  std::optional<ChurnRound> first;
  ChurnRound traced_sum;
  std::uint64_t traced_retrievals = 0;
  Tracer tracer(200000);
  std::uint64_t attempted = 0, failed = 0;
  const std::uint64_t phase0 = NowNs();
  int index = 0;
  while (cpu_per_op.size() < 2 || (options.trace && traced_cpu_per_op.size() < 2) ||
         static_cast<double>(NowNs() - phase0) / 1e9 < options.seconds) {
    const Status set_up =
        TimedSetUp(&setup, &setup_s, [&] { return SetUpChurn(options); });
    if (!set_up.ok()) {
      report.Fail("set-up: " + set_up.ToString());
      return report;
    }
    // A traced run alternates untraced and traced rounds.
    Tracer* t = options.trace && index % 2 == 1 ? &tracer : nullptr;
    ++index;
    Result<ChurnRound> round =
        RunChurnRound(&*setup, t, t == nullptr ? &slot_samples : nullptr);
    if (!round.ok()) {
      report.Fail("round: " + round.status().ToString());
      return report;
    }
    slot_times.AddRound(&slot_samples);
    attempted += setup->retrievals.size();
    failed += round->failed;
    if (round->failed > 0) {
      report.Fail(std::to_string(round->failed) +
                  " retrievals incomplete or not byte-exact");
    }
    if (!first.has_value()) {
      first = *round;
    } else if (round->delays != first->delays || round->ages != first->ages ||
               round->versions != first->versions) {
      report.Fail("rounds of one seed disagree");
    }
    const double ops = static_cast<double>(round->ops);
    if (t == nullptr) {
      ops_per_s.push_back(ops / (static_cast<double>(round->wall_ns) / 1e9));
      cpu_per_op.push_back(PerOp(static_cast<double>(round->cpu_ns), ops));
      continue;
    }
    traced_cpu_per_op.push_back(PerOp(static_cast<double>(round->cpu_ns), ops));
    traced_sum.slots += round->slots;
    traced_sum.ops += round->ops;
    traced_sum.versions += round->versions;
    traced_sum.commit_fetch_ns += round->commit_fetch_ns;
    traced_sum.offers += round->offers;
    traced_sum.useful_offers += round->useful_offers;
    traced_sum.crc_offers += round->crc_offers;
    traced_sum.checksum_rejects += round->checksum_rejects;
    traced_sum.restarts += round->restarts;
    traced_sum.stale_rejects += round->stale_rejects;
    traced_sum.stamped_blocks += round->stamped_blocks;
    traced_sum.user_bytes += round->user_bytes;
    traced_sum.device.reads += round->device.reads;
    traced_sum.device.writes += round->device.writes;
    traced_sum.device.syncs += round->device.syncs;
    traced_sum.catalog_entries = round->catalog_entries;
    traced_retrievals += round->delays.size();
  }
  const ChurnSetup& s = *setup;
  report.notes.push_back(
      "update_churn: " + std::to_string(s.program.file_count()) +
      " files, period " + std::to_string(s.program.period()) +
      " slots, horizon " + std::to_string(s.horizon) + ", " +
      std::to_string(s.retrievals.size()) + " retrievals, device " +
      std::to_string(s.device_blocks * kSectorBytes >> 20) + " MiB");
  report.attempted = attempted;
  report.failed = failed;
  if (out != nullptr) {
    out->delays = first->delays;
    out->ages = first->ages;
    out->ops = first->ops;
    out->commits = first->versions;
  }

  if (!options.trace) {
    double sum = 0.0, max = 0.0, age_sum = 0.0;
    for (std::size_t i = 0; i < first->delays.size(); ++i) {
      sum += static_cast<double>(first->delays[i]);
      max = std::max(max, static_cast<double>(first->delays[i]));
      age_sum += static_cast<double>(first->ages[i]);
    }
    const double n = static_cast<double>(first->delays.size());
    report.Add("ops_per_s", Median(ops_per_s), "1/s");
    report.Add("cpu_ns_per_op", Median(cpu_per_op), "ns");
    report.Add("mean_delay_slots", sum / n, "slots");
    report.Add("max_delay_slots", max, "slots");
    report.Add("mean_data_age_slots", age_sum / n, "slots");
    report.Add("slot_us_p50", Median(slot_times.p50_us), "us");
    report.Add("slot_us_p99", Median(slot_times.p99_us), "us");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("setup_s", Median(setup_s), "s");
    report.NoteSeries("set-up seconds", setup_s);
    report.notes.push_back("update_churn: " + std::to_string(ops_per_s.size()) +
                           " rounds, " + std::to_string(slot_times.samples) +
                           " slot samples, " +
                           std::to_string(first->versions) +
                           " versions per round");
    return report;
  }

  // Dispersal per version, timed on the versions the first round created.
  std::uint64_t disperse_ns = 0, dispersed = 0;
  {
    sim::VersionedServerOptions vo;
    vo.block_size = s.block_size;
    vo.update_interval_slots = s.intervals;
    vo.content_seed = s.content_seed;
    Result<sim::VersionedBroadcastServer> contents_source =
        sim::VersionedBroadcastServer::Create(s.program, vo);
    if (!contents_source.ok()) {
      report.Fail("contents: " + contents_source.status().ToString());
      return report;
    }
    for (const auto& [file, version] : first->created) {
      if (dispersed == 32) break;
      const broadcast::ProgramFile& pf = s.program.files()[file];
      Result<ida::Dispersal> engine =
          ida::Dispersal::Create(pf.m, pf.n, s.block_size);
      const std::vector<std::uint8_t> contents =
          contents_source->ContentsOf(file, version);
      if (!engine.ok()) break;
      const std::uint64_t t0 = NowNs();
      Result<std::vector<ida::Block>> blocks =
          engine->Disperse(static_cast<ida::FileId>(file), contents, version);
      disperse_ns += NowNs() - t0;
      if (!blocks.ok()) break;
      ++dispersed;
    }
  }
  if (!tracer.WriteSpans(options.work_dir + "/spans_update_churn.jsonl")) {
    report.Fail("cannot write the span dump");
  }

  const auto self = [&](Layer l) {
    return static_cast<double>(tracer.self_ns(l));
  };
  const double ops = static_cast<double>(traced_sum.ops);
  const double versions = static_cast<double>(traced_sum.versions);
  const double block_bytes = static_cast<double>(s.block_size) +
                             static_cast<double>(ida::kBlockIdentityBytes);
  const double plain = Median(cpu_per_op);
  report.Add("sim.fetch_ns_per_slot",
             PerOp(self(Layer::kFetch), static_cast<double>(traced_sum.slots)),
             "ns");
  report.Add("sim.offer_ns_per_datagram", PerOp(self(Layer::kOffer), ops),
             "ns");
  report.Add("sim.offers_per_datagram",
             PerOp(static_cast<double>(traced_sum.offers), ops), "count");
  report.Add("sim.offer_useful_frac",
             PerOp(static_cast<double>(traced_sum.useful_offers),
                   static_cast<double>(traced_sum.offers)),
             "1");
  report.Add("sim.checksum_rejects",
             static_cast<double>(traced_sum.checksum_rejects), "count");
  const double retrievals = static_cast<double>(traced_retrievals);
  report.Add("sim.restarts_per_retrieval",
             PerOp(static_cast<double>(traced_sum.restarts), retrievals),
             "count");
  report.Add("sim.stale_rejects",
             static_cast<double>(traced_sum.stale_rejects), "count");
  report.Add("store.device_reads_per_block",
             PerOp(static_cast<double>(traced_sum.device.reads), ops), "count");
  report.Add("store.read_ns_per_block", PerOp(self(Layer::kStoreRead), ops),
             "ns");
  report.Add("store.device_bytes_written_per_user_byte",
             PerOp(static_cast<double>(traced_sum.device.writes) *
                       static_cast<double>(kSectorBytes),
                   static_cast<double>(traced_sum.user_bytes)),
             "1");
  report.Add("store.syncs_per_version",
             PerOp(static_cast<double>(traced_sum.device.syncs), versions),
             "count");
  report.Add("store.catalog_entries",
             static_cast<double>(traced_sum.catalog_entries), "count");
  report.Add("sim.fetch_commit_us",
             PerOp(static_cast<double>(traced_sum.commit_fetch_ns), versions) /
                 1e3,
             "us");
  report.Add("ida.disperse_us_per_version",
             PerOp(static_cast<double>(disperse_ns),
                   static_cast<double>(dispersed)) /
                 1e3,
             "us");
  report.Add("ida.reconstruct_us_per_retrieval",
             PerOp(self(Layer::kReconstruct), retrievals) / 1e3, "us");
  report.Add("ida.crc_bytes_per_op",
             PerOp(static_cast<double>(traced_sum.ops + traced_sum.crc_offers +
                                       traced_sum.stamped_blocks) *
                       block_bytes,
                   ops),
             "count");
  report.Add("ida.crc_ns_per_kib", CrcNsPerKib(s.block_size), "ns");
  report.Add("bdisk.plan_ms", s.plan_ms, "ms");
  report.Add("ida.disperse_ms_setup", s.start_ms - s.commit_ms, "ms");
  report.Add("store.commit_ms_setup", s.commit_ms, "ms");
  report.Add("trace.overhead_frac",
             plain > 0 ? (Median(traced_cpu_per_op) - plain) / plain : 0.0,
             "1");
  report.Add("fail_ratio",
             PerOp(static_cast<double>(failed), static_cast<double>(attempted)),
             "1");
  return report;
}

}  // namespace pipebench
