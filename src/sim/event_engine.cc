#include "sim/event_engine.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "sim/trace_walk.h"

namespace bdisk::sim {

void EventHeap::Push(const Event& e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

EventHeap::Event EventHeap::Pop() {
  BDISK_DCHECK(!heap_.empty());
  const Event top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t left = 2 * i + 1;
    std::size_t smallest = i;
    if (left < n && Before(heap_[left], heap_[smallest])) smallest = left;
    if (left + 1 < n && Before(heap_[left + 1], heap_[smallest])) {
      smallest = left + 1;
    }
    if (smallest == i) break;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
  return top;
}

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
    const std::uint64_t abs_slot = epoch.start + q * period + occ[j];
    if (abs_slot < end) {
      const std::uint64_t ordinal = q * count + j;
      const std::uint32_t n = program.files()[file].n;
      return NextTx{abs_slot, static_cast<std::uint32_t>(ordinal % n)};
    }
    // The next occurrence falls past this epoch's end: resume the search
    // at the next epoch's start (its rotation restarts there).
  }
  return std::nullopt;
}

bool EventShardRunner::TestSetHave(ClientState* st, std::uint32_t block,
                                   std::uint32_t n) {
  if (n <= 64) {
    const std::uint64_t bit = 1ULL << block;
    const bool present = (st->have_bits & bit) != 0;
    st->have_bits |= bit;
    return present;
  }
  std::uint64_t& word = arena_[st->spill_offset + block / 64];
  const std::uint64_t bit = 1ULL << (block % 64);
  const bool present = (word & bit) != 0;
  word |= bit;
  return present;
}

bool EventShardRunner::TestSetBase(ClientState* st, std::uint32_t block,
                                   std::uint32_t n) {
  if (n <= 64) {
    const std::uint64_t bit = 1ULL << block;
    const bool present = (st->base_bits & bit) != 0;
    st->base_bits |= bit;
    return present;
  }
  const std::uint32_t words = (n + 63) / 64;
  std::uint64_t& word = arena_[st->spill_offset + words + block / 64];
  const std::uint64_t bit = 1ULL << (block % 64);
  const bool present = (word & bit) != 0;
  word |= bit;
  return present;
}

void EventShardRunner::Prepare(
    std::uint64_t begin, std::uint64_t end,
    const std::function<EventClient(std::uint64_t)>& client_at) {
  const auto& files = engine_->files();
  const std::uint64_t horizon = engine_->horizon();
  states_.assign(static_cast<std::size_t>(end - begin), ClientState{});
  events_ = 0;

  // Pass 1: materialize the client specs and size the spill arena.
  std::uint64_t spill_words = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const EventClient client = client_at(begin + i);
    BDISK_CHECK(client.file < files.size());
    BDISK_CHECK(client.start_slot < horizon);
    ClientState& st = states_[i];
    st.file = client.file;
    st.start_slot = client.start_slot;
    st.deadline_slots = client.deadline_slots;
    const std::uint32_t n = files[client.file].n;
    if (n > 64) spill_words += 2ULL * ((n + 63) / 64);
  }
  arena_.assign(static_cast<std::size_t>(spill_words), 0);
  BDISK_CHECK(spill_words <= ClientState::kNoSpill);

  // Pass 2: assign spill offsets and seed each client's first event.
  heap_ = EventHeap();
  heap_.Reserve(states_.size());
  std::uint32_t offset = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ClientState& st = states_[i];
    const std::uint32_t n = files[st.file].n;
    if (n > 64) {
      st.spill_offset = offset;
      offset += 2 * ((n + 63) / 64);
    }
    const auto next = engine_->NextTransmissionOf(st.file, st.start_slot);
    if (!next.has_value()) {
      // No transmission of this file before the horizon: the slot walk
      // would observe nothing — incomplete with zero errors.
      st.flags |= ClientState::kDone;
      continue;
    }
    heap_.Push(EventHeap::Event{next->slot, static_cast<std::uint32_t>(i),
                                next->block});
  }
}

void EventShardRunner::Drain() {
  const auto& files = engine_->files();
  while (!heap_.Empty()) {
    const EventHeap::Event event = heap_.Pop();
    ClientState& st = states_[event.client];
    ++events_;
    const broadcast::ProgramFile& pf = files[st.file];
    // Lossless-baseline walk (stall metric): counts every transmission's
    // block regardless of faults, until it reaches m distinct blocks.
    if ((st.flags & ClientState::kBaselineDone) == 0) {
      if (!TestSetBase(&st, event.block, pf.n)) {
        ++st.base_distinct;
        if (st.base_distinct >= pf.m) {
          st.flags |= ClientState::kBaselineDone;
          st.baseline_slot = event.slot;
        }
      }
    }
    const faults::FaultType fault = engine_->FaultAt(event.slot);
    if (fault != faults::FaultType::kNone) {
      // Lost, or corrupted-and-discarded after checksum detection: no
      // progress on this transmission (same accounting as the slot walk).
      ++st.errors_observed;
      if (fault == faults::FaultType::kCorrupted) ++st.corrupt_detected;
    } else if (!TestSetHave(&st, event.block, pf.n)) {
      ++st.distinct;
      if (st.distinct >= pf.m) {
        st.flags |= ClientState::kCompleted | ClientState::kDone;
        st.completion_slot = event.slot;
        continue;  // Finished: no re-arm.
      }
    }
    const auto next = engine_->NextTransmissionOf(st.file, event.slot + 1);
    if (!next.has_value()) {
      st.flags |= ClientState::kDone;  // Horizon exhausted: incomplete.
      continue;
    }
    heap_.Push(EventHeap::Event{next->slot, event.client, next->block});
  }
}

void EventEngine::RecordRetrievalTrace(
    obs::TraceSink* sink, std::uint64_t request_id, const ClientState& st,
    const RetrievalOutcome& outcome) const {
  const std::uint8_t trigger =
      sink->TriggerFor(request_id, outcome.completed, outcome.met_deadline,
                       outcome.stall_slots);
  if (trigger == 0) return;
  const broadcast::ProgramFile& pf = files()[st.file];
  TraceWalkContext ctx;
  // The event engine finds the next transmission by jump arithmetic — the
  // same O(log occurrences) step its event loop uses.
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
    if (trace != nullptr) {
      engine_->RecordRetrievalTrace(trace, global_begin + i, st, outcome);
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
        runner.Prepare(shard.begin, shard.end, client_at);
        {
          // One timer per shard drain — never per event.
          obs::ScopedPhaseTimer timer(drain_us);
          runner.Drain();
        }
        runner.Collect(shard.metrics, shard.timeline, shard.begin,
                       shard.trace);
        total_events += runner.events_processed();
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
