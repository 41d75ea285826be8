#include "sim/event_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "sim/trace_walk.h"

namespace bdisk::sim {

EventEngine::EventEngine(const broadcast::BroadcastProgram& program,
                         const std::vector<faults::FaultType>& faults)
    : faults_(&faults) {
  epochs_.push_back(
      EpochRef{0, std::numeric_limits<std::uint64_t>::max(), &program});
}

EventEngine::EventEngine(const EpochSchedule& schedule,
                         const std::vector<faults::FaultType>& faults)
    : faults_(&faults) {
  const auto& epochs = schedule.epochs();
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const std::uint64_t end = e + 1 < epochs.size()
                                  ? epochs[e + 1].start_slot
                                  : std::numeric_limits<std::uint64_t>::max();
    epochs_.push_back(EpochRef{epochs[e].start_slot, end, &epochs[e].program});
  }
}

std::size_t EventEngine::EpochIndexAt(std::uint64_t t) const {
  // Last epoch whose start <= t (first epoch starts at 0).
  const auto it = std::upper_bound(
      epochs_.begin(), epochs_.end(), t,
      [](std::uint64_t slot, const EpochRef& e) { return slot < e.start; });
  BDISK_DCHECK(it != epochs_.begin());
  return static_cast<std::size_t>(it - epochs_.begin()) - 1;
}

std::uint64_t EventEngine::PeriodAt(std::uint64_t t) const {
  return epochs_[EpochIndexAt(t)].program->period();
}

std::optional<EventEngine::NextTx> EventEngine::NextTransmissionOf(
    broadcast::FileIndex file, std::uint64_t from) const {
  const std::uint64_t horizon = faults_->size();
  if (from >= horizon) return std::nullopt;
  for (std::size_t e = EpochIndexAt(from); e < epochs_.size(); ++e) {
    const EpochRef& epoch = epochs_[e];
    if (epoch.start >= horizon) break;
    const std::uint64_t begin = std::max(from, epoch.start);
    const std::uint64_t end = std::min(epoch.end, horizon);
    if (begin >= end) continue;
    // Jump arithmetic within the epoch: occurrences are ascending slots of
    // one period; the k-th transmission of the file *within the epoch*
    // carries block k mod n (epoch-local rotation, sim/epoch.h).
    const broadcast::BroadcastProgram& program = *epoch.program;
    const auto& occ = program.OccurrencesOf(file);
    const std::uint64_t period = program.period();
    const std::uint64_t count = occ.size();
    const std::uint64_t local = begin - epoch.start;
    std::uint64_t q = local / period;
    const std::uint64_t r = local % period;
    std::uint64_t j = static_cast<std::uint64_t>(
        std::lower_bound(occ.begin(), occ.end(), r) - occ.begin());
    if (j == count) {
      ++q;
      j = 0;
    }
    const std::uint64_t period_base = epoch.start + q * period;
    const std::uint64_t abs_slot = period_base + occ[j];
    if (abs_slot < end) {
      const std::uint64_t ordinal = q * count + j;
      const std::uint32_t n = program.files()[file].n;
      NextTx tx;
      tx.slot = abs_slot;
      tx.block = static_cast<std::uint32_t>(ordinal % n);
      tx.file = file;
      tx.occurrence = j;
      tx.period_base = period_base;
      tx.epoch_end = end;
      tx.occurrences = occ.data();
      tx.count = count;
      tx.period = period;
      tx.n = n;
      return tx;
    }
    // The next occurrence falls past this epoch's end: resume the search
    // at the next epoch's start (its rotation restarts there).
  }
  return std::nullopt;
}

namespace {

// The distinct-block set of a file with n <= 64: one word, held in a
// register for the whole walk.
struct WordSet {
  std::uint64_t bits = 0;

  /// Adds `block`; true iff it was not yet present.
  bool Insert(std::uint32_t block) {
    const std::uint64_t bit = 1ULL << block;
    const bool fresh = (bits & bit) == 0;
    bits |= bit;
    return fresh;
  }
  void CopyFrom(const WordSet& other) { bits = other.bits; }
};

// The distinct-block set of a file with n > 64: `words` words of the
// runner's scratch.
struct SpillSet {
  std::uint64_t* bits = nullptr;
  std::size_t words = 0;

  bool Insert(std::uint32_t block) {
    std::uint64_t& word = bits[block / 64];
    const std::uint64_t bit = 1ULL << (block % 64);
    const bool fresh = (word & bit) == 0;
    word |= bit;
    return fresh;
  }
  void CopyFrom(const SpillSet& other) {
    std::copy_n(other.bits, words, bits);
  }
};

// Walks one client's chain from its start slot until it collects m
// distinct blocks or the horizon runs out, and records the outcome in
// `st`. `trace` is the fault trace; `have` must be empty, and `base` is
// overwritten at the first fault. Returns the events the client heard.
//
// Two walks run side by side: the actual one, which progresses only on
// fault-free transmissions, and the lossless baseline (stall metric),
// which counts every transmission's block. Until the client's first fault
// both have heard exactly the same blocks, so `have` serves both; at that
// event the baseline forks into `base` and continues alone. A fault-free
// completion is therefore the baseline's completion too.
template <typename Set>
std::uint64_t WalkClient(const EventEngine& engine,
                         const faults::FaultType* trace, std::uint32_t m,
                         Set have, Set base, ClientState* st) {
  auto next = engine.NextTransmissionOf(st->file, st->start_slot);
  // A client whose file has no transmission left before the horizon ends
  // at once: the slot walk would observe nothing — incomplete with zero
  // errors.
  st->flags = ClientState::kDone;
  if (!next.has_value()) return 0;
  EventEngine::NextTx tx = *next;
  std::uint64_t events = 0;
  std::uint32_t distinct = 0;
  std::uint32_t base_distinct = 0;
  std::uint32_t errors = 0;
  std::uint32_t corrupt = 0;
  bool forked = false;
  bool baseline_done = false;
  for (;;) {
    ++events;
    const faults::FaultType fault = trace[tx.slot];
    if (fault != faults::FaultType::kNone) {
      if (!forked) {
        base.CopyFrom(have);
        base_distinct = distinct;
        forked = true;
      }
      // Lost, or corrupted-and-discarded after checksum detection: no
      // progress on this transmission (same accounting as the slot walk).
      ++errors;
      if (fault == faults::FaultType::kCorrupted) ++corrupt;
    }
    if (forked && !baseline_done && base.Insert(tx.block) &&
        ++base_distinct >= m) {
      baseline_done = true;
      st->baseline_slot = tx.slot;
    }
    if (fault == faults::FaultType::kNone && have.Insert(tx.block) &&
        ++distinct >= m) {
      st->flags |= ClientState::kCompleted;
      st->completion_slot = tx.slot;
      if (!forked) {
        baseline_done = true;
        st->baseline_slot = tx.slot;
      }
      break;  // Finished: no more events.
    }
    if (!engine.Advance(&tx)) break;  // Horizon exhausted: incomplete.
  }
  if (baseline_done) st->flags |= ClientState::kBaselineDone;
  st->errors_observed = errors;
  st->corrupt_detected = corrupt;
  return events;
}

}  // namespace

void EventShardRunner::Prepare(
    std::uint64_t begin, std::uint64_t end,
    const std::function<EventClient(std::uint64_t)>& client_at) {
  const auto& files = engine_->files();
  const std::uint64_t horizon = engine_->horizon();
  states_.assign(static_cast<std::size_t>(end - begin), ClientState{});
  events_ = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const EventClient client = client_at(begin + i);
    BDISK_CHECK(client.file < files.size());
    BDISK_CHECK(client.start_slot < horizon);
    ClientState& st = states_[i];
    st.file = client.file;
    st.start_slot = client.start_slot;
    st.deadline_slots = client.deadline_slots;
  }
  std::size_t max_n = 0;
  for (const broadcast::ProgramFile& pf : files) {
    max_n = std::max<std::size_t>(max_n, pf.n);
  }
  const std::size_t scratch_words = 2 * ((max_n + 63) / 64);
  if (scratch_.size() < scratch_words) scratch_.resize(scratch_words);
}

void EventShardRunner::Drain() {
  const auto& files = engine_->files();
  const faults::FaultType* trace = engine_->faults_->data();
  std::uint64_t events = 0;
  for (ClientState& st : states_) {
    // Clients only listen, so each chain runs to its end on its own.
    const broadcast::ProgramFile& pf = files[st.file];
    if (pf.n <= 64) {
      events += WalkClient(*engine_, trace, pf.m, WordSet{}, WordSet{}, &st);
    } else {
      const std::size_t words = (pf.n + 63) / 64;
      SpillSet have{scratch_.data(), words};
      std::fill_n(have.bits, words, 0);
      events += WalkClient(*engine_, trace, pf.m, have,
                           SpillSet{scratch_.data() + words, words}, &st);
    }
  }
  events_ += events;
}

void EventEngine::RecordRetrievalTrace(
    obs::TraceSink* sink, std::uint64_t request_id, const ClientState& st,
    const RetrievalOutcome& outcome, std::uint8_t trigger) const {
  const broadcast::ProgramFile& pf = files()[st.file];
  TraceWalkContext ctx;
  // The replay finds each next transmission with the seek its event loop
  // starts every chain with. Only triggered clients pay for it.
  ctx.next_tx = [this, file = st.file](std::uint64_t from)
      -> std::optional<std::pair<std::uint64_t, std::uint32_t>> {
    const auto next = NextTransmissionOf(file, from);
    if (!next.has_value()) return std::nullopt;
    return std::make_pair(next->slot, next->block);
  };
  ctx.faults = faults_;
  for (std::size_t e = 1; e < epochs_.size(); ++e) {
    ctx.epoch_starts.push_back(epochs_[e].start);
  }
  ctx.m = pf.m;
  ctx.n = pf.n;
  ctx.horizon = faults_->size();
  sink->Record(BuildRetrievalSpan(ctx, request_id, st.file, pf.name,
                                  st.start_slot, st.deadline_slots, outcome,
                                  trigger));
}

RetrievalOutcome EventShardRunner::OutcomeOf(const ClientState& st) const {
  RetrievalOutcome walk;
  walk.completed = (st.flags & ClientState::kCompleted) != 0;
  walk.completion_slot = st.completion_slot;
  walk.errors_observed = st.errors_observed;
  walk.corrupt_detected = st.corrupt_detected;
  return FinishOutcome(walk, st.start_slot, st.deadline_slots,
                       engine_->PeriodAt(st.start_slot), [&st] {
                         // The baseline completes no later than the actual
                         // walk (its distinct set is a superset at every
                         // slot).
                         BDISK_CHECK((st.flags &
                                      ClientState::kBaselineDone) != 0);
                         return st.baseline_slot;
                       });
}

void EventShardRunner::Collect(SimulationMetrics* local,
                               obs::Timeline* timeline,
                               std::uint64_t global_begin,
                               obs::TraceSink* trace) const {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const ClientState& st = states_[i];
    BDISK_DCHECK((st.flags & ClientState::kDone) != 0);
    const RetrievalOutcome outcome = OutcomeOf(st);
    // The trigger check runs inline for every client; only a triggered
    // client pays for the out-of-line span replay.
    const std::uint8_t trigger =
        trace != nullptr
            ? trace->TriggerFor(global_begin + i, outcome.completed,
                                outcome.met_deadline, outcome.stall_slots)
            : 0;
    if (trigger != 0) {
      engine_->RecordRetrievalTrace(trace, global_begin + i, st, outcome,
                                    trigger);
    }
    AccumulateOutcome(outcome, &local->per_file[st.file], timeline);
  }
}

SimulationMetrics EventEngine::Run(
    std::uint64_t count,
    const std::function<EventClient(std::uint64_t)>& client_at,
    runtime::ThreadPool* pool, EventEngineStats* stats,
    obs::Timeline* timeline, obs::TraceSink* trace) const {
  std::atomic<std::uint64_t> total_events{0};
  obs::HistogramMetric* drain_us = obs::GlobalRegistry().GetHistogram(
      "phase.event_drain_us", obs::PhaseTimerBoundsUs());
  SimulationMetrics metrics = RunSharded(
      files(), count, pool, timeline, trace, [&](const Shard& shard) {
        EventShardRunner runner(*this);
        std::uint64_t events = 0;
        std::chrono::steady_clock::duration drain{};
        for (std::uint64_t begin = shard.begin; begin < shard.end;) {
          const std::uint64_t end =
              begin + std::min(kBlockClients, shard.end - begin);
          runner.Prepare(begin, end, client_at);
          const auto t0 = std::chrono::steady_clock::now();
          runner.Drain();
          drain += std::chrono::steady_clock::now() - t0;
          runner.Collect(shard.metrics, shard.timeline, begin, shard.trace);
          events += runner.events_processed();
          begin = end;
        }
        // One sample per shard, its blocks' Drain time summed: the phase
        // timer times Drain alone, never per block or per event.
        drain_us->Record(
            std::chrono::duration<double, std::micro>(drain).count());
        total_events += events;
      });
  obs::GlobalRegistry().GetCounter("sim.events")->Add(total_events);
  obs::GlobalRegistry().GetCounter("sim.clients")->Add(count);
  if (stats != nullptr) {
    stats->clients = count;
    stats->events = total_events;
  }
  return metrics;
}

}  // namespace bdisk::sim
