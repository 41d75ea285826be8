#include "sim/simulation.h"

#include <algorithm>
#include <bit>

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

}  // namespace

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

Result<RetrievalOutcome> Simulator::Retrieve(
    const ClientRequest& request) const {
  if (request.file >= files().size()) {
    return Status::InvalidArgument("Simulator: unknown file index " +
                                   std::to_string(request.file));
  }
  if (request.start_slot >= faults_.size()) {
    return Status::InvalidArgument("Simulator: start beyond horizon");
  }
  const broadcast::ProgramFile& pf = files()[request.file];
  if (request.model == broadcast::ClientModel::kFlat && pf.n != pf.m) {
    return Status::InvalidArgument(
        "Simulator: flat client model requires n == m for file '" + pf.name +
        "'");
  }

  RetrievalOutcome outcome;
  // Distinct-block tracker; n can exceed 64, so use a byte vector.
  std::vector<bool> have(pf.n, false);
  std::uint32_t distinct = 0;
  for (std::uint64_t t = request.start_slot; t < faults_.size(); ++t) {
    const auto tx = TxAt(t);
    if (!tx.has_value() || tx->file != request.file) continue;
    const faults::FaultType fault = faults_[t];
    if (fault != faults::FaultType::kNone) {
      // Lost, or corrupted-and-discarded after checksum detection: either
      // way the client makes no progress on this transmission.
      ++outcome.errors_observed;
      if (fault == faults::FaultType::kCorrupted) ++outcome.corrupt_detected;
      continue;
    }
    if (!have[tx->block_index]) {
      have[tx->block_index] = true;
      ++distinct;
    }
    if (distinct >= pf.m) {
      outcome.completed = true;
      outcome.completion_slot = t;
      outcome.latency = t - request.start_slot + 1;
      break;
    }
  }
  if (outcome.completed && request.deadline_slots > 0) {
    outcome.met_deadline = outcome.latency <= request.deadline_slots;
  } else if (!outcome.completed) {
    outcome.met_deadline = request.deadline_slots == 0;
  }
  if (outcome.completed) {
    const std::uint64_t period = PeriodAt(request.start_slot);
    outcome.periods_to_recovery = (outcome.latency + period - 1) / period;
    // Stall: slots the faults cost versus the lossless channel. A fault on
    // the file's slots is a necessary condition for stall, so the baseline
    // pass is skipped on the (common) clean-retrieval path.
    if (outcome.errors_observed > 0) {
      const auto baseline =
          LosslessCompletionSlot(request.file, request.start_slot);
      BDISK_CHECK(baseline.has_value());  // Completes by outcome's slot.
      outcome.stall_slots = outcome.completion_slot - *baseline;
    }
  }
  return outcome;
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
  RetrievalOutcome combined;
  combined.completed = true;
  combined.completion_slot = 0;
  for (broadcast::FileIndex f : request.files) {
    ClientRequest single;
    single.file = f;
    single.start_slot = request.start_slot;
    single.deadline_slots = 0;  // Judged jointly below.
    single.model = request.model;
    BDISK_ASSIGN_OR_RETURN(RetrievalOutcome outcome, Retrieve(single));
    combined.errors_observed += outcome.errors_observed;
    combined.corrupt_detected += outcome.corrupt_detected;
    if (!outcome.completed) {
      combined.completed = false;
    } else if (outcome.completion_slot > combined.completion_slot) {
      combined.completion_slot = outcome.completion_slot;
    }
  }
  if (combined.completed) {
    combined.latency = combined.completion_slot - request.start_slot + 1;
    combined.met_deadline = request.deadline_slots == 0 ||
                            combined.latency <= request.deadline_slots;
    const std::uint64_t period = PeriodAt(request.start_slot);
    combined.periods_to_recovery = (combined.latency + period - 1) / period;
    if (combined.errors_observed > 0) {
      // Joint stall: against the lossless channel the transaction also
      // completes when its slowest item does.
      std::uint64_t baseline = 0;
      for (broadcast::FileIndex f : request.files) {
        const auto item = LosslessCompletionSlot(f, request.start_slot);
        BDISK_CHECK(item.has_value());
        baseline = std::max(baseline, *item);
      }
      combined.stall_slots = combined.completion_slot - baseline;
    }
  } else {
    combined.completion_slot = 0;
    combined.met_deadline = request.deadline_slots == 0;
  }
  return combined;
}

Status Simulator::ValidateWorkload(
    const WorkloadConfig& config, std::vector<std::uint64_t>* deadlines,
    std::vector<std::uint64_t>* start_ranges) const {
  const std::size_t file_count = files().size();
  deadlines->assign(file_count, 0);
  start_ranges->assign(file_count, 0);
  for (broadcast::FileIndex f = 0; f < file_count; ++f) {
    const broadcast::ProgramFile& pf = files()[f];
    if (config.model == broadcast::ClientModel::kFlat && pf.n != pf.m) {
      return Status::InvalidArgument(
          "Simulator: flat client model requires n == m for file '" +
          pf.name + "'");
    }
    std::uint64_t deadline = 0;
    if (f < config.deadline_slots.size() && config.deadline_slots[f] != 0) {
      deadline = config.deadline_slots[f];
    } else if (!pf.latency_slots.empty()) {
      deadline = pf.latency_slots.front();
    }
    (*deadlines)[f] = deadline;

    // Leave room at the end of the horizon so retrievals are not cut off
    // artificially: a generous tail of several periods plus the deadline.
    const std::uint64_t tail =
        std::max<std::uint64_t>(deadline, 4 * MaxDataCycle());
    if (faults_.size() <= tail) {
      return Status::InvalidArgument(
          "Simulator: horizon too small for workload (need > " +
          std::to_string(tail) + " slots)");
    }
    (*start_ranges)[f] = faults_.size() - tail;
  }
  return Status::OK();
}

Result<SimulationMetrics> Simulator::RunWorkload(const WorkloadConfig& config,
                                                 runtime::ThreadPool* pool,
                                                 obs::Timeline* timeline,
                                                 obs::TraceSink* trace)
    const {
  const std::size_t file_count = files().size();
  // Validate everything up front (per-file deadline and admissible start
  // range) so shard workers cannot fail mid-flight.
  std::vector<std::uint64_t> deadlines;
  std::vector<std::uint64_t> start_ranges;
  BDISK_RETURN_NOT_OK(ValidateWorkload(config, &deadlines, &start_ranges));

  // One global request index g = f * requests_per_file + k drives both the
  // shard split and the RNG stream, so any shard count replays the exact
  // same per-request draws.
  const std::uint64_t total = file_count * config.requests_per_file;
  const unsigned shards = runtime::ShardCountFor(pool, total);
  std::vector<SimulationMetrics> shard_metrics(shards);
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
  obs::HistogramMetric* dispatch_us = obs::GlobalRegistry().GetHistogram(
      "phase.slot_dispatch_us", obs::PhaseTimerBoundsUs());
  runtime::ParallelFor(
      pool, total, shards,
      [&](unsigned shard, runtime::ShardRange range) {
        // One timer per shard of slot-walked retrievals — never per request.
        obs::ScopedPhaseTimer timer(dispatch_us);
        SimulationMetrics& local = shard_metrics[shard];
        obs::Timeline* local_tl =
            timeline != nullptr ? &shard_timelines[shard] : nullptr;
        obs::TraceSink* local_tr =
            trace != nullptr ? &shard_traces[shard] : nullptr;
        if (local_tl != nullptr) {
          local_tl->Reserve(static_cast<std::size_t>(range.end - range.begin));
        }
        local.per_file.resize(file_count);
        for (std::uint64_t g = range.begin; g < range.end; ++g) {
          const auto f = static_cast<broadcast::FileIndex>(
              g / config.requests_per_file);
          Rng rng = runtime::StreamRng(config.seed, g);
          ClientRequest req;
          req.file = f;
          req.start_slot = rng.Uniform(start_ranges[f]);
          req.deadline_slots = deadlines[f];
          req.model = config.model;
          auto outcome = Retrieve(req);
          BDISK_CHECK(outcome.ok());  // Inputs were validated above.
          if (local_tr != nullptr) RecordTraceSpan(local_tr, g, req, *outcome);
          FileMetrics& fm = local.per_file[f];
          if (outcome->completed) {
            ++fm.completed;
            fm.latency.Add(static_cast<double>(outcome->latency));
            fm.stall.Add(static_cast<double>(outcome->stall_slots));
            fm.periods_to_recovery.Add(
                static_cast<double>(outcome->periods_to_recovery));
            if (!outcome->met_deadline) ++fm.missed_deadline;
            if (local_tl != nullptr) {
              local_tl->RecordCompleted(outcome->completion_slot,
                                        outcome->latency,
                                        outcome->stall_slots,
                                        outcome->met_deadline,
                                        outcome->errors_observed,
                                        outcome->corrupt_detected);
            }
          } else {
            ++fm.incomplete;
            if (local_tl != nullptr) {
              local_tl->RecordIncomplete(outcome->errors_observed,
                                         outcome->corrupt_detected);
            }
          }
          fm.errors_observed += outcome->errors_observed;
          fm.corrupt_detected += outcome->corrupt_detected;
        }
      });

  SimulationMetrics metrics;
  metrics.per_file.resize(file_count);
  for (broadcast::FileIndex f = 0; f < file_count; ++f) {
    metrics.per_file[f].file_name = files()[f].name;
  }
  for (const SimulationMetrics& sm : shard_metrics) metrics.Merge(sm);
  if (timeline != nullptr) {
    for (const obs::Timeline& tl : shard_timelines) timeline->Merge(tl);
  }
  if (trace != nullptr) {
    for (obs::TraceSink& tr : shard_traces) trace->Merge(std::move(tr));
  }
  return metrics;
}

Result<SimulationMetrics> Simulator::RunWorkloadEvented(
    const WorkloadConfig& config, runtime::ThreadPool* pool,
    obs::Timeline* timeline, obs::TraceSink* trace) const {
  // Identical validation, request generation, and sharding to RunWorkload:
  // the two paths differ only in how each retrieval is walked, so the
  // resulting metrics snapshots are byte-identical.
  std::vector<std::uint64_t> deadlines;
  std::vector<std::uint64_t> start_ranges;
  BDISK_RETURN_NOT_OK(ValidateWorkload(config, &deadlines, &start_ranges));
  const std::uint64_t total = files().size() * config.requests_per_file;
  const auto client_at = [&](std::uint64_t g) {
    const auto f =
        static_cast<broadcast::FileIndex>(g / config.requests_per_file);
    Rng rng = runtime::StreamRng(config.seed, g);
    EventClient client;
    client.file = f;
    client.start_slot = rng.Uniform(start_ranges[f]);
    client.deadline_slots = deadlines[f];
    return client;
  };
  if (schedule_ != nullptr) {
    const EventEngine engine(*schedule_, faults_);
    return engine.Run(total, client_at, pool, nullptr, timeline, trace);
  }
  const EventEngine engine(*program_, faults_);
  return engine.Run(total, client_at, pool, nullptr, timeline, trace);
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
  for (broadcast::FileIndex f = 0; f < file_count; ++f) {
    const broadcast::ProgramFile& pf = files()[f];
    if (config.model == broadcast::ClientModel::kFlat && pf.n != pf.m) {
      return Status::InvalidArgument(
          "Simulator: flat client model requires n == m for file '" +
          pf.name + "'");
    }
  }
  const std::uint64_t tail = std::max<std::uint64_t>(
      config.deadline_slots, 4 * MaxDataCycle());
  if (faults_.size() <= tail) {
    return Status::InvalidArgument(
        "Simulator: horizon too small for workload (need > " +
        std::to_string(tail) + " slots)");
  }
  const std::uint64_t start_range = faults_.size() - tail;

  const unsigned shards = runtime::ShardCountFor(pool, config.transactions);
  std::vector<TransactionMetrics> shard_metrics(shards);
  runtime::ParallelFor(
      pool, config.transactions, shards,
      [&](unsigned shard, runtime::ShardRange range) {
        TransactionMetrics& local = shard_metrics[shard];
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
          if (outcome->completed) {
            ++local.completed;
            local.latency.Add(static_cast<double>(outcome->latency));
            local.stall.Add(static_cast<double>(outcome->stall_slots));
            local.periods_to_recovery.Add(
                static_cast<double>(outcome->periods_to_recovery));
            if (!outcome->met_deadline) ++local.missed_deadline;
          } else {
            ++local.incomplete;
          }
          local.errors_observed += outcome->errors_observed;
          local.corrupt_detected += outcome->corrupt_detected;
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
  const std::size_t file_count = files().size();
  // Validate up front so shard workers cannot fail mid-flight.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ClientRequest& req = requests[i];
    if (req.file >= file_count) {
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
    const broadcast::ProgramFile& pf = files()[req.file];
    if (req.model == broadcast::ClientModel::kFlat && pf.n != pf.m) {
      return Status::InvalidArgument(
          "Simulator: flat client model requires n == m for file '" +
          pf.name + "'");
    }
  }

  const unsigned shards = runtime::ShardCountFor(pool, requests.size());
  std::vector<SimulationMetrics> shard_metrics(shards);
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
  obs::HistogramMetric* dispatch_us = obs::GlobalRegistry().GetHistogram(
      "phase.slot_dispatch_us", obs::PhaseTimerBoundsUs());
  runtime::ParallelFor(
      pool, requests.size(), shards,
      [&](unsigned shard, runtime::ShardRange range) {
        obs::ScopedPhaseTimer timer(dispatch_us);
        SimulationMetrics& local = shard_metrics[shard];
        obs::Timeline* local_tl =
            timeline != nullptr ? &shard_timelines[shard] : nullptr;
        obs::TraceSink* local_tr =
            trace != nullptr ? &shard_traces[shard] : nullptr;
        if (local_tl != nullptr) {
          local_tl->Reserve(static_cast<std::size_t>(range.end - range.begin));
        }
        local.per_file.resize(file_count);
        for (std::uint64_t g = range.begin; g < range.end; ++g) {
          auto outcome = Retrieve(requests[g]);
          BDISK_CHECK(outcome.ok());  // Inputs were validated above.
          if (local_tr != nullptr) {
            RecordTraceSpan(local_tr, g, requests[g], *outcome);
          }
          FileMetrics& fm = local.per_file[requests[g].file];
          if (outcome->completed) {
            ++fm.completed;
            fm.latency.Add(static_cast<double>(outcome->latency));
            fm.stall.Add(static_cast<double>(outcome->stall_slots));
            fm.periods_to_recovery.Add(
                static_cast<double>(outcome->periods_to_recovery));
            if (!outcome->met_deadline) ++fm.missed_deadline;
            if (local_tl != nullptr) {
              local_tl->RecordCompleted(outcome->completion_slot,
                                        outcome->latency,
                                        outcome->stall_slots,
                                        outcome->met_deadline,
                                        outcome->errors_observed,
                                        outcome->corrupt_detected);
            }
          } else {
            ++fm.incomplete;
            if (local_tl != nullptr) {
              local_tl->RecordIncomplete(outcome->errors_observed,
                                         outcome->corrupt_detected);
            }
          }
          fm.errors_observed += outcome->errors_observed;
          fm.corrupt_detected += outcome->corrupt_detected;
        }
      });

  SimulationMetrics metrics;
  metrics.per_file.resize(file_count);
  for (broadcast::FileIndex f = 0; f < file_count; ++f) {
    metrics.per_file[f].file_name = files()[f].name;
  }
  for (const SimulationMetrics& sm : shard_metrics) metrics.Merge(sm);
  if (timeline != nullptr) {
    for (const obs::Timeline& tl : shard_timelines) timeline->Merge(tl);
  }
  if (trace != nullptr) {
    for (obs::TraceSink& tr : shard_traces) trace->Merge(std::move(tr));
  }
  return metrics;
}

std::uint64_t Simulator::CorruptedSlotCount() const {
  std::uint64_t n = 0;
  for (faults::FaultType f : faults_) {
    if (f != faults::FaultType::kNone) ++n;
  }
  return n;
}

}  // namespace bdisk::sim
