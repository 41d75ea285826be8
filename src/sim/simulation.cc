#include "sim/simulation.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_stream.h"
#include "sim/event_engine.h"
#include "sim/trace_walk.h"

namespace bdisk::sim {

namespace {

std::vector<faults::FaultType> RealizeChannel(
    const faults::ChannelModel& channel, std::uint64_t horizon) {
  std::vector<faults::FaultType> trace(horizon);
  channel.FillFaults(0, horizon, trace.data());
  return trace;
}

Status CheckClientModel(const broadcast::ProgramFile& pf,
                        broadcast::ClientModel model) {
  if (model == broadcast::ClientModel::kFlat && pf.n != pf.m) {
    return Status::InvalidArgument(
        "Simulator: flat client model requires n == m for file '" + pf.name +
        "'");
  }
  return Status::OK();
}

}  // namespace

void AccumulateOutcome(const RetrievalOutcome& outcome, OutcomeStats* stats,
                       obs::Timeline* timeline) {
  if (outcome.completed) {
    ++stats->completed;
    stats->latency.Add(static_cast<double>(outcome.latency));
    stats->stall.Add(static_cast<double>(outcome.stall_slots));
    stats->periods_to_recovery.Add(
        static_cast<double>(outcome.periods_to_recovery));
    if (!outcome.met_deadline) ++stats->missed_deadline;
    if (timeline != nullptr) {
      timeline->RecordCompleted(outcome.completion_slot, outcome.latency,
                                outcome.stall_slots, outcome.met_deadline,
                                outcome.errors_observed,
                                outcome.corrupt_detected);
    }
  } else {
    ++stats->incomplete;
    if (timeline != nullptr) {
      timeline->RecordIncomplete(outcome.errors_observed,
                                 outcome.corrupt_detected);
    }
  }
  stats->errors_observed += outcome.errors_observed;
  stats->corrupt_detected += outcome.corrupt_detected;
}

SimulationMetrics RunSharded(const std::vector<broadcast::ProgramFile>& files,
                             std::uint64_t count, runtime::ThreadPool* pool,
                             obs::Timeline* timeline, obs::TraceSink* trace,
                             const std::function<void(const Shard&)>&
                                 fold_shard) {
  const unsigned shards = runtime::ShardCountFor(pool, count);
  std::vector<SimulationMetrics> shard_metrics(shards);
  // Shard-local timelines and sinks: recording is unsynchronized and the
  // in-order merges below are exact, so the output is deterministic at
  // any shard count.
  std::vector<obs::Timeline> shard_timelines;
  if (timeline != nullptr) {
    shard_timelines.assign(
        shards, obs::Timeline(timeline->interval_slots(),
                              timeline->horizon()));
  }
  std::vector<obs::TraceSink> shard_traces;
  if (trace != nullptr) {
    shard_traces.assign(shards, obs::TraceSink(trace->options()));
  }
  runtime::ParallelFor(
      pool, count, shards, [&](unsigned s, runtime::ShardRange range) {
        Shard shard{range.begin, range.end, &shard_metrics[s],
                    timeline != nullptr ? &shard_timelines[s] : nullptr,
                    trace != nullptr ? &shard_traces[s] : nullptr};
        shard.metrics->per_file.resize(files.size());
        if (shard.timeline != nullptr) {
          shard.timeline->Reserve(static_cast<std::size_t>(range.size()));
        }
        fold_shard(shard);
      });

  SimulationMetrics metrics;
  metrics.per_file.resize(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    metrics.per_file[f].file_name = files[f].name;
  }
  for (const SimulationMetrics& sm : shard_metrics) metrics.Merge(sm);
  if (timeline != nullptr) {
    for (obs::Timeline& tl : shard_timelines) timeline->Merge(std::move(tl));
  }
  if (trace != nullptr) {
    for (obs::TraceSink& tr : shard_traces) trace->Merge(std::move(tr));
  }
  return metrics;
}

Simulator::Simulator(const broadcast::BroadcastProgram& program,
                     const faults::ChannelModel& channel,
                     std::uint64_t horizon)
    : program_(&program), faults_(RealizeChannel(channel, horizon)) {}

Simulator::Simulator(const EpochSchedule& schedule,
                     const faults::ChannelModel& channel,
                     std::uint64_t horizon)
    : schedule_(&schedule), faults_(RealizeChannel(channel, horizon)) {}

const std::vector<broadcast::ProgramFile>& Simulator::files() const {
  return schedule_ != nullptr ? schedule_->files() : program_->files();
}

std::optional<broadcast::TransmissionRef> Simulator::TxAt(
    std::uint64_t t) const {
  return schedule_ != nullptr ? schedule_->TransmissionAt(t)
                              : program_->TransmissionAt(t);
}

std::uint64_t Simulator::MaxDataCycle() const {
  return schedule_ != nullptr ? schedule_->MaxDataCycleLength()
                              : program_->DataCycleLength();
}

Status Simulator::CheckRequest(const ClientRequest& request) const {
  if (request.file >= files().size()) {
    return Status::InvalidArgument("Simulator: unknown file index " +
                                   std::to_string(request.file));
  }
  if (request.start_slot >= faults_.size()) {
    return Status::InvalidArgument("Simulator: start beyond horizon");
  }
  return CheckClientModel(files()[request.file], request.model);
}

RetrievalOutcome Simulator::SlotWalk(broadcast::FileIndex file,
                                     std::uint64_t start) const {
  const broadcast::ProgramFile& pf = files()[file];
  RetrievalOutcome walk;
  // Distinct-block tracker; n can exceed 64, so not a single word.
  std::vector<bool> have(pf.n, false);
  std::uint32_t distinct = 0;
  for (std::uint64_t t = start; t < faults_.size(); ++t) {
    const auto tx = TxAt(t);
    if (!tx.has_value() || tx->file != file) continue;
    const faults::FaultType fault = faults_[t];
    if (fault != faults::FaultType::kNone) {
      // Lost, or corrupted-and-discarded after checksum detection: either
      // way the client makes no progress on this transmission.
      ++walk.errors_observed;
      if (fault == faults::FaultType::kCorrupted) ++walk.corrupt_detected;
      continue;
    }
    if (!have[tx->block_index]) {
      have[tx->block_index] = true;
      ++distinct;
    }
    if (distinct >= pf.m) {
      walk.completed = true;
      walk.completion_slot = t;
      break;
    }
  }
  return walk;
}

Result<RetrievalOutcome> Simulator::Retrieve(
    const ClientRequest& request) const {
  BDISK_RETURN_NOT_OK(CheckRequest(request));
  return FinishOutcome(
      SlotWalk(request.file, request.start_slot), request.start_slot,
      request.deadline_slots, PeriodAt(request.start_slot), [&] {
        const auto baseline =
            LosslessCompletionSlot(request.file, request.start_slot);
        BDISK_CHECK(baseline.has_value());  // Completes by the walk's slot.
        return *baseline;
      });
}

std::optional<std::uint64_t> LosslessCompletionWalk(
    const std::function<std::optional<broadcast::TransmissionRef>(
        std::uint64_t)>& tx_at,
    broadcast::FileIndex file, std::uint32_t m, std::uint32_t n,
    std::uint64_t start, std::uint64_t end) {
  std::vector<bool> have(n, false);
  std::uint32_t distinct = 0;
  for (std::uint64_t t = start; t < end; ++t) {
    const auto tx = tx_at(t);
    if (!tx.has_value() || tx->file != file) continue;
    if (!have[tx->block_index]) {
      have[tx->block_index] = true;
      ++distinct;
    }
    if (distinct >= m) return t;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> Simulator::LosslessCompletionSlot(
    broadcast::FileIndex file, std::uint64_t start) const {
  const broadcast::ProgramFile& pf = files()[file];
  return LosslessCompletionWalk([this](std::uint64_t t) { return TxAt(t); },
                                file, pf.m, pf.n, start, faults_.size());
}

std::uint64_t Simulator::PeriodAt(std::uint64_t t) const {
  if (schedule_ == nullptr) return program_->period();
  return schedule_->epochs()[schedule_->EpochIndexAt(t)].program.period();
}

void Simulator::RecordTraceSpan(obs::TraceSink* sink,
                                std::uint64_t request_id,
                                const ClientRequest& request,
                                const RetrievalOutcome& outcome) const {
  const std::uint8_t trigger =
      sink->TriggerFor(request_id, outcome.completed, outcome.met_deadline,
                       outcome.stall_slots);
  if (trigger == 0) return;
  const broadcast::ProgramFile& pf = files()[request.file];
  TraceWalkContext ctx;
  // The slot engine finds the next transmission by scanning — the same
  // O(slots) walk Retrieve performed, now paid only for traced requests.
  ctx.next_tx = [this, file = request.file](std::uint64_t from)
      -> std::optional<std::pair<std::uint64_t, std::uint32_t>> {
    for (std::uint64_t t = from; t < faults_.size(); ++t) {
      const auto tx = TxAt(t);
      if (tx.has_value() && tx->file == file) {
        return std::make_pair(t, tx->block_index);
      }
    }
    return std::nullopt;
  };
  ctx.faults = &faults_;
  if (schedule_ != nullptr) {
    const auto& epochs = schedule_->epochs();
    for (std::size_t e = 1; e < epochs.size(); ++e) {
      ctx.epoch_starts.push_back(epochs[e].start_slot);
    }
  }
  ctx.m = pf.m;
  ctx.n = pf.n;
  ctx.horizon = faults_.size();
  sink->Record(BuildRetrievalSpan(ctx, request_id, request.file, pf.name,
                                  request.start_slot, request.deadline_slots,
                                  outcome, trigger));
}

Result<RetrievalOutcome> Simulator::RetrieveTransaction(
    const TransactionRequest& request) const {
  if (request.files.empty()) {
    return Status::InvalidArgument("RetrieveTransaction: no files");
  }
  // The transaction completes when its slowest item does, and hears the
  // faults of all its items.
  RetrievalOutcome walk;
  walk.completed = true;
  for (broadcast::FileIndex f : request.files) {
    BDISK_RETURN_NOT_OK(
        CheckRequest({f, request.start_slot, 0, request.model}));
    const RetrievalOutcome item = SlotWalk(f, request.start_slot);
    walk.completed = walk.completed && item.completed;
    walk.completion_slot = std::max(walk.completion_slot, item.completion_slot);
    walk.errors_observed += item.errors_observed;
    walk.corrupt_detected += item.corrupt_detected;
  }
  return FinishOutcome(
      walk, request.start_slot, request.deadline_slots,
      PeriodAt(request.start_slot), [&] {
        // Joint stall: against the lossless channel the transaction also
        // completes when its slowest item does.
        std::uint64_t baseline = 0;
        for (broadcast::FileIndex f : request.files) {
          const auto item = LosslessCompletionSlot(f, request.start_slot);
          BDISK_CHECK(item.has_value());
          baseline = std::max(baseline, *item);
        }
        return baseline;
      });
}

Result<std::uint64_t> Simulator::StartRange(std::uint64_t deadline) const {
  // Four data cycles, saturating: a cycle past 2^62 slots needs a horizon
  // no fault trace can have.
  const std::uint64_t cycle = MaxDataCycle();
  const std::uint64_t four_cycles =
      cycle > std::numeric_limits<std::uint64_t>::max() / 4
          ? std::numeric_limits<std::uint64_t>::max()
          : 4 * cycle;
  const std::uint64_t tail = std::max(deadline, four_cycles);
  if (faults_.size() <= tail) {
    return Status::InvalidArgument(
        "Simulator: horizon too small for workload (need > " +
        std::to_string(tail) + " slots)");
  }
  return faults_.size() - tail;
}

struct Simulator::WorkloadDraws {
  const WorkloadConfig* config = nullptr;
  /// files x requests_per_file, checked not to wrap.
  std::uint64_t total = 0;
  /// Per file: the resolved deadline and the bound of the start draw.
  std::vector<std::uint64_t> deadlines;
  std::vector<std::uint64_t> start_ranges;

  /// Request g: file g / requests_per_file, a start drawn from RNG stream
  /// g of the seed, and the file's deadline. One global index drives both
  /// the shard split and the draw, so any shard count replays the same
  /// requests.
  ClientRequest At(std::uint64_t g) const {
    const auto f =
        static_cast<broadcast::FileIndex>(g / config->requests_per_file);
    Rng rng = runtime::StreamRng(config->seed, g);
    return ClientRequest{f, rng.Uniform(start_ranges[f]), deadlines[f],
                         config->model};
  }
};

Result<Simulator::WorkloadDraws> Simulator::ValidateWorkload(
    const WorkloadConfig& config) const {
  const std::size_t file_count = files().size();
  WorkloadDraws draws;
  draws.config = &config;
  if (config.requests_per_file != 0 &&
      file_count > std::numeric_limits<std::uint64_t>::max() /
                       config.requests_per_file) {
    return Status::InvalidArgument(
        "Simulator: " + std::to_string(file_count) +
        " files x requests_per_file " +
        std::to_string(config.requests_per_file) +
        " overflows the 64-bit request index");
  }
  draws.total = file_count * config.requests_per_file;
  for (broadcast::FileIndex f = 0; f < file_count; ++f) {
    const broadcast::ProgramFile& pf = files()[f];
    BDISK_RETURN_NOT_OK(CheckClientModel(pf, config.model));
    std::uint64_t deadline = 0;
    if (f < config.deadline_slots.size() && config.deadline_slots[f] != 0) {
      deadline = config.deadline_slots[f];
    } else if (!pf.latency_slots.empty()) {
      deadline = pf.latency_slots.front();
    }
    draws.deadlines.push_back(deadline);
    BDISK_ASSIGN_OR_RETURN(const std::uint64_t range, StartRange(deadline));
    draws.start_ranges.push_back(range);
  }
  return draws;
}

template <typename RequestAt>
SimulationMetrics Simulator::FoldRequests(std::uint64_t count,
                                          const RequestAt& request_at,
                                          runtime::ThreadPool* pool,
                                          obs::Timeline* timeline,
                                          obs::TraceSink* trace) const {
  obs::HistogramMetric* dispatch_us = obs::GlobalRegistry().GetHistogram(
      "phase.slot_dispatch_us", obs::PhaseTimerBoundsUs());
  return RunSharded(
      files(), count, pool, timeline, trace, [&](const Shard& shard) {
        // One timer per shard of slot-walked retrievals — never per request.
        obs::ScopedPhaseTimer timer(dispatch_us);
        for (std::uint64_t g = shard.begin; g < shard.end; ++g) {
          const ClientRequest request = request_at(g);
          auto outcome = Retrieve(request);
          BDISK_CHECK(outcome.ok());  // Inputs were validated up front.
          if (shard.trace != nullptr) {
            RecordTraceSpan(shard.trace, g, request, *outcome);
          }
          AccumulateOutcome(*outcome, &shard.metrics->per_file[request.file],
                            shard.timeline);
        }
      });
}

Result<SimulationMetrics> Simulator::RunWorkload(const WorkloadConfig& config,
                                                 runtime::ThreadPool* pool,
                                                 obs::Timeline* timeline,
                                                 obs::TraceSink* trace)
    const {
  BDISK_ASSIGN_OR_RETURN(const WorkloadDraws draws, ValidateWorkload(config));
  return FoldRequests(
      draws.total, [&draws](std::uint64_t g) { return draws.At(g); }, pool,
      timeline, trace);
}

Result<SimulationMetrics> Simulator::RunWorkloadEvented(
    const WorkloadConfig& config, runtime::ThreadPool* pool,
    obs::Timeline* timeline, obs::TraceSink* trace) const {
  // Identical validation and request draws to RunWorkload: the two paths
  // differ only in how each retrieval is walked.
  BDISK_ASSIGN_OR_RETURN(const WorkloadDraws draws, ValidateWorkload(config));
  const auto client_at = [&draws](std::uint64_t g) {
    const ClientRequest request = draws.At(g);
    return EventClient{request.file, request.start_slot,
                       request.deadline_slots};
  };
  const EventEngine engine = schedule_ != nullptr
                                 ? EventEngine(*schedule_, faults_)
                                 : EventEngine(*program_, faults_);
  return engine.Run(draws.total, client_at, pool, nullptr, timeline, trace);
}

Result<TransactionMetrics> Simulator::RunTransactionWorkload(
    const TransactionWorkloadConfig& config, runtime::ThreadPool* pool) const {
  const std::size_t file_count = files().size();
  if (config.files_per_transaction == 0 ||
      config.files_per_transaction > file_count) {
    return Status::InvalidArgument(
        "RunTransactionWorkload: files_per_transaction must be in [1, " +
        std::to_string(file_count) + "], got " +
        std::to_string(config.files_per_transaction));
  }
  for (const broadcast::ProgramFile& pf : files()) {
    BDISK_RETURN_NOT_OK(CheckClientModel(pf, config.model));
  }
  BDISK_ASSIGN_OR_RETURN(const std::uint64_t start_range,
                         StartRange(config.deadline_slots));

  const unsigned shards = runtime::ShardCountFor(pool, config.transactions);
  std::vector<TransactionMetrics> shard_metrics(shards);
  runtime::ParallelFor(
      pool, config.transactions, shards,
      [&](unsigned shard, runtime::ShardRange range) {
        for (std::uint64_t t = range.begin; t < range.end; ++t) {
          Rng rng = runtime::StreamRng(config.seed, t);
          TransactionRequest req;
          req.start_slot = rng.Uniform(start_range);
          req.deadline_slots = config.deadline_slots;
          req.model = config.model;
          for (std::size_t i : rng.SampleWithoutReplacement(
                   file_count, config.files_per_transaction)) {
            req.files.push_back(static_cast<broadcast::FileIndex>(i));
          }
          auto outcome = RetrieveTransaction(req);
          BDISK_CHECK(outcome.ok());  // Inputs were validated above.
          AccumulateOutcome(*outcome, &shard_metrics[shard]);
        }
      });

  TransactionMetrics metrics;
  for (const TransactionMetrics& tm : shard_metrics) metrics.Merge(tm);
  return metrics;
}

Result<SimulationMetrics> Simulator::RunRequests(
    const std::vector<ClientRequest>& requests,
    runtime::ThreadPool* pool, obs::Timeline* timeline,
    obs::TraceSink* trace) const {
  // Validate up front so shard workers cannot fail mid-flight.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ClientRequest& req = requests[i];
    if (req.file >= files().size()) {
      return Status::InvalidArgument("RunRequests: request " +
                                     std::to_string(i) +
                                     " names unknown file index " +
                                     std::to_string(req.file));
    }
    if (req.start_slot >= faults_.size()) {
      return Status::InvalidArgument("RunRequests: request " +
                                     std::to_string(i) +
                                     " starts beyond the horizon");
    }
    BDISK_RETURN_NOT_OK(CheckClientModel(files()[req.file], req.model));
  }
  return FoldRequests(
      requests.size(), [&requests](std::uint64_t g) { return requests[g]; },
      pool, timeline, trace);
}

std::uint64_t Simulator::CorruptedSlotCount() const {
  std::uint64_t n = 0;
  for (faults::FaultType f : faults_) {
    if (f != faults::FaultType::kNone) ++n;
  }
  return n;
}

}  // namespace bdisk::sim
