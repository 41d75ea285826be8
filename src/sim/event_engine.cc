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
  BuildLanes();
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
  BuildLanes();
}

void EventEngine::BuildLanes() {
  // Lane slots, ordinals and fault counts are 32-bit; the sentinel's slot
  // stays above every slot of the horizon.
  const std::uint64_t horizon = faults_->size();
  BDISK_CHECK(horizon <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t file_count = files().size();
  file_count_ = file_count;
  std::size_t live = 0;
  while (live < epochs_.size() && epochs_[live].start < horizon) ++live;

  // First pass: each lane's extent, transmission count and bucket width,
  // so both arrays are allocated once at their exact size.
  lanes_.resize(live * file_count);
  std::size_t tx_total = 0;
  std::size_t seek_total = 0;
  for (std::size_t e = 0; e < live; ++e) {
    const EpochRef& epoch = epochs_[e];
    const broadcast::BroadcastProgram& program = *epoch.program;
    const std::uint64_t end = std::min(epoch.end, horizon);
    const std::uint64_t span = end - epoch.start;
    const std::uint64_t period = program.period();
    for (broadcast::FileIndex f = 0; f < file_count; ++f) {
      const auto& occ = program.OccurrencesOf(f);
      Lane& lane = lanes_[e * file_count + f];
      lane.base = epoch.start;
      lane.end = end;
      lane.m = program.files()[f].m;
      lane.n = program.files()[f].n;
      lane.count = static_cast<std::uint32_t>(
          span / period * occ.size() +
          static_cast<std::uint64_t>(
              std::lower_bound(occ.begin(), occ.end(), span % period) -
              occ.begin()));
      // The narrowest power-of-two bucket that needs no more buckets than
      // the lane has transmissions.
      const std::uint64_t most = std::max<std::uint64_t>(lane.count, 1);
      while (((span - 1) >> lane.shift) + 1 > most) ++lane.shift;
      lane.first = tx_total;
      lane.seek = seek_total;
      tx_total += lane.count + 1;
      seek_total += ((span - 1) >> lane.shift) + 1;
    }
  }

  // Second pass: fill each lane in slot order, counting faults as it goes,
  // then point each bucket at its first transmission.
  lane_tx_.resize(tx_total);
  seek_.resize(seek_total);
  const faults::FaultType* trace = faults_->data();
  for (std::size_t e = 0; e < live; ++e) {
    const broadcast::BroadcastProgram& program = *epochs_[e].program;
    for (broadcast::FileIndex f = 0; f < file_count; ++f) {
      const Lane& lane = lanes_[e * file_count + f];
      const auto& occ = program.OccurrencesOf(f);
      LaneTransmission* tx = lane_tx_.data() + lane.first;
      std::uint32_t faults = 0;
      for (std::uint32_t k = 0; k < lane.count; ++k) {
        const std::uint64_t slot = lane.base +
                                   k / occ.size() * program.period() +
                                   occ[k % occ.size()];
        tx[k] = {static_cast<std::uint32_t>(slot), faults};
        if (trace[slot] != faults::FaultType::kNone) ++faults;
      }
      tx[lane.count] = {std::numeric_limits<std::uint32_t>::max(), faults};
      const std::uint64_t buckets =
          ((lane.end - lane.base - 1) >> lane.shift) + 1;
      std::uint32_t k = 0;
      for (std::uint64_t b = 0; b < buckets; ++b) {
        while (k < lane.count && tx[k].slot < lane.base + (b << lane.shift)) {
          ++k;
        }
        seek_[lane.seek + b] = k;
      }
    }
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

inline const EventEngine::Lane* EventEngine::Seek(broadcast::FileIndex file,
                                                 std::uint64_t from,
                                                 std::uint32_t* k) const {
  if (from >= faults_->size()) return nullptr;
  for (std::size_t e = lanes_.size() == file_count_ ? 0 : EpochIndexAt(from);
       e * file_count_ < lanes_.size(); ++e) {
    const Lane& lane = lanes_[e * file_count_ + file];
    // A later epoch's lane is searched from its start.
    const std::uint64_t at = std::max(from, lane.base);
    if (at >= lane.end) continue;
    const LaneTransmission* tx = lane_tx_.data() + lane.first;
    std::uint32_t i = seek_[lane.seek + ((at - lane.base) >> lane.shift)];
    // A bucket holds about one transmission; the sentinel stops the step.
    i += tx[i].slot < at;
    while (tx[i].slot < at) ++i;
    if (i < lane.count) {
      *k = i;
      return &lane;
    }
  }
  return nullptr;
}

std::optional<EventEngine::LaneCursor> EventEngine::NextTransmissionOf(
    broadcast::FileIndex file, std::uint64_t from) const {
  std::uint32_t k = 0;
  const Lane* lane = Seek(file, from, &k);
  if (lane == nullptr) return std::nullopt;
  LaneCursor tx = CursorAt(*lane, file, k);
  tx.block = k % tx.n;
  return tx;
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

// Closes a retrieval whose first transmission is ordinal `k0` of the lane
// `tx` (`count` transmissions, then the sentinel) of a file of geometry
// (m, n), from the lane's fault counts: with at most r = n - m faults among
// ordinals k0..K, K - k0 < n, so every clean transmission there carries a
// new block and the client completes at its m-th clean one. That K is the
// least fixed point of K = k0 + m - 1 + faults(k0..K), reached from below
// in at most faults + 1 rounds. The lossless baseline completes at ordinal
// k0 + m - 1. Records the outcome in `st` and returns the events heard, or
// 0, leaving `st` untouched, when the retrieval needs the walk: more than
// r faults, or a window that runs past the lane.
std::uint64_t CloseClient(const LaneTransmission* tx, std::uint64_t k0,
                          std::uint64_t count, std::uint32_t m,
                          std::uint32_t n, const faults::FaultType* trace,
                          ClientState* st) {
  const std::uint64_t lossless = k0 + m - 1;
  if (lossless >= count) return 0;
  const std::uint32_t faults_before = tx[k0].faults_before;
  std::uint64_t k = lossless;
  for (;;) {
    const std::uint64_t next =
        lossless + (tx[k + 1].faults_before - faults_before);
    if (next == k) break;
    if (next - k0 >= n || next >= count) return 0;
    k = next;
  }
  // Only a faulty transmission can be corrupted; K itself is clean.
  std::uint32_t corrupt = 0;
  if (k > lossless) {
    for (std::uint64_t j = k0; j < k; ++j) {
      corrupt += trace[tx[j].slot] == faults::FaultType::kCorrupted;
    }
  }
  st->completion_slot = tx[k].slot;
  st->baseline_slot = tx[lossless].slot;
  st->errors_observed = static_cast<std::uint32_t>(k - lossless);
  st->corrupt_detected = corrupt;
  st->flags =
      ClientState::kCompleted | ClientState::kBaselineDone | ClientState::kDone;
  return k - k0 + 1;
}

// Walks one client's chain from its first transmission `tx` until it
// collects m distinct blocks or the horizon runs out, and records the
// outcome in `st`. `trace` is the fault trace; `have` must be empty, and
// `base` is overwritten at the first fault. Returns the events the client
// heard.
//
// Two walks run side by side: the actual one, which progresses only on
// fault-free transmissions, and the lossless baseline (stall metric),
// which counts every transmission's block. Until the client's first fault
// both have heard exactly the same blocks, so `have` serves both; at that
// event the baseline forks into `base` and continues alone. A fault-free
// completion is therefore the baseline's completion too.
template <typename Set>
std::uint64_t WalkClient(const EventEngine& engine, EventEngine::LaneCursor tx,
                         const faults::FaultType* trace, std::uint32_t m,
                         Set have, Set base, ClientState* st) {
  tx.block = tx.ordinal % tx.n;  // The seek leaves the rotation to the walk.
  st->flags = ClientState::kDone;
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
  walked_ = 0;
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
  const EventEngine& engine = *engine_;
  const faults::FaultType* trace = engine.faults_->data();
  const LaneTransmission* lane_tx = engine.lane_tx_.data();
  std::uint64_t events = 0;
  std::uint64_t walked = 0;
  for (ClientState& st : states_) {
    // Clients only listen, so each retrieval finishes on its own. A client
    // whose file has no transmission left before the horizon ends at once:
    // the slot walk would observe nothing — incomplete with zero errors.
    std::uint32_t k0 = 0;
    const EventEngine::Lane* lane = engine.Seek(st.file, st.start_slot, &k0);
    if (lane == nullptr) {
      st.flags = ClientState::kDone;
      continue;
    }
    const std::uint64_t closed = CloseClient(
        lane_tx + lane->first, k0, lane->count, lane->m, lane->n, trace, &st);
    if (closed > 0) {
      events += closed;
      continue;
    }
    ++walked;
    const EventEngine::LaneCursor first = engine.CursorAt(*lane, st.file, k0);
    if (lane->n <= 64) {
      events += WalkClient(engine, first, trace, lane->m, WordSet{},
                           WordSet{}, &st);
    } else {
      const std::size_t words = (lane->n + 63) / 64;
      SpillSet have{scratch_.data(), words};
      std::fill_n(have.bits, words, 0);
      events += WalkClient(engine, first, trace, lane->m, have,
                           SpillSet{scratch_.data() + words, words}, &st);
    }
  }
  events_ += events;
  walked_ += walked;
}

void EventEngine::RecordRetrievalTrace(
    obs::TraceSink* sink, std::uint64_t request_id, const ClientState& st,
    const RetrievalOutcome& outcome, std::uint8_t trigger) const {
  const broadcast::ProgramFile& pf = files()[st.file];
  TraceWalkContext ctx;
  // The replay seeks the client's first transmission, then steps the
  // cursor one lane ordinal per event, as the walk does. Only triggered
  // clients pay for it.
  ctx.next_tx = [this, file = st.file, tx = std::optional<LaneCursor>()](
                    std::uint64_t from) mutable
      -> std::optional<std::pair<std::uint64_t, std::uint32_t>> {
    if (!tx.has_value() || from != tx->slot + 1) {
      tx = NextTransmissionOf(file, from);
    } else if (!Advance(&*tx)) {
      tx.reset();
    }
    if (!tx.has_value()) return std::nullopt;
    return std::make_pair(tx->slot, tx->block);
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
  std::atomic<std::uint64_t> total_walked{0};
  obs::HistogramMetric* drain_us = obs::GlobalRegistry().GetHistogram(
      "phase.event_drain_us", obs::PhaseTimerBoundsUs());
  SimulationMetrics metrics = RunSharded(
      files(), count, pool, timeline, trace, [&](const Shard& shard) {
        EventShardRunner runner(*this);
        std::uint64_t events = 0;
        std::uint64_t walked = 0;
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
          walked += runner.clients_walked();
          begin = end;
        }
        // One sample per shard, its blocks' Drain time summed: the phase
        // timer times Drain alone, never per block or per event.
        drain_us->Record(
            std::chrono::duration<double, std::micro>(drain).count());
        total_events += events;
        total_walked += walked;
      });
  obs::GlobalRegistry().GetCounter("sim.events")->Add(total_events);
  obs::GlobalRegistry().GetCounter("sim.clients")->Add(count);
  obs::GlobalRegistry().GetCounter("sim.clients_walked")->Add(total_walked);
  if (stats != nullptr) {
    stats->clients = count;
    stats->events = total_events;
    stats->clients_walked = total_walked;
  }
  return metrics;
}

}  // namespace bdisk::sim
