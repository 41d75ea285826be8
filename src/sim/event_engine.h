/// \file event_engine.h
/// \brief Discrete-event simulation core for million-client fleets.
///
/// The slot-by-slot simulator (sim/simulation.h) walks every slot of every
/// retrieval, paying O(latency in slots) per client even though a client
/// only *does* anything on the slots carrying its own file. The event
/// engine removes the dead time: each client is a compact state record
/// (48 bytes), and the only events are "client c hears a transmission of
/// its file at slot s". Clients only listen, so no client's events depend
/// on another's: the engine needs no event queue. It finishes one client,
/// then the next, in ascending client index.
///
/// **Transmission lanes.** The constructor lays out one lane per (epoch,
/// file): the file's transmissions in that epoch before the horizon, each
/// as its slot and the number of faulty transmissions before it in the
/// lane, plus a seek index of at most one entry per transmission — at most
/// 12 bytes per transmission, O(transmissions in the horizon) in all. A
/// lane's ordinal k carries block k mod n (the epoch-local rotation of
/// sim/epoch.h). A client's first transmission k0 is an index lookup, and
/// the fault counts close most retrievals in O(1): IDA needs any m of the
/// n blocks and n consecutive ordinals carry n distinct blocks, so a
/// client that loses at most r = n - m transmissions inside its lane
/// completes at its m-th clean transmission, the ordinal K with
/// K = k0 + m - 1 + (faults among k0..K) and K - k0 < n. Only a client
/// that loses more than r, or whose retrieval runs past its lane's end (an
/// epoch hot-swap or the horizon), walks its chain, one lane ordinal per
/// event.
/// Run() handles each shard in fixed blocks of kBlockClients clients, so
/// engine memory beyond the lanes is O(block) per thread however large the
/// fleet.
///
/// **Determinism contract (extends docs/ARCHITECTURE.md).** The engine is
/// proven output-*identical* to the slot-by-slot engine, not merely
/// statistically equivalent: for the same (program/schedule, fault trace,
/// client list), `MetricsToJson` of the evented run is byte-identical to
/// the slot engine's, serial or sharded, at any thread count
/// (tests/engine_equivalence_test.cc). The ingredients:
///
///  * clients are sharded by global index with the same ShardOf split as
///    the slot engine, and each shard handles its clients in index order,
///    in contiguous blocks — no cross-shard or cross-client state;
///  * every per-client quantity (completion slot, errors, stall baseline)
///    is a pure function of the shared fault trace and the schedule, so the
///    order in which clients are handled, and whether a client is closed
///    or walked, cannot change it;
///  * after each block drains, outcomes are folded into the metrics in
///    ascending client order — the exact accumulation order of the slot
///    engine — and shards merge with the exact RunningStats merge.
///
/// Steady-state event processing performs no heap allocation: lanes are
/// built once in the constructor, and a walk keeps its distinct-block sets
/// in locals (files with n > 64 in the runner's scratch, sized in
/// Prepare()); tests/event_engine_test.cc counts allocations to enforce
/// this.

#ifndef BDISK_SIM_EVENT_ENGINE_H_
#define BDISK_SIM_EVENT_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bdisk/program.h"
#include "faults/channel_model.h"
#include "sim/epoch.h"
#include "sim/metrics.h"

namespace bdisk::obs {
class Timeline;
class TraceSink;
}  // namespace bdisk::obs

namespace bdisk::runtime {
class ThreadPool;
}  // namespace bdisk::runtime

namespace bdisk::sim {

struct RetrievalOutcome;

/// \brief One simulated client: which file it wants, when it tunes in,
/// and its latency budget (0 = no deadline). Generated on demand by a
/// pure function of the global client index, so fleets never need a
/// materialized request list.
struct EventClient {
  broadcast::FileIndex file = 0;
  std::uint64_t start_slot = 0;
  std::uint64_t deadline_slots = 0;
};

/// \brief Compact per-client simulation state (48 bytes): the client's
/// request and the outcome of its retrieval, closed or walked. The
/// distinct-block sets live only in the walk (EventShardRunner::Drain), so
/// none is kept here.
struct ClientState {
  static constexpr std::uint8_t kCompleted = 1;     // Collected m blocks.
  static constexpr std::uint8_t kBaselineDone = 2;  // Lossless walk done.
  static constexpr std::uint8_t kDone = 4;          // No more events.

  std::uint64_t start_slot = 0;
  std::uint64_t completion_slot = 0;
  /// Slot at which the lossless-baseline walk (stall metric) collected m
  /// distinct blocks; valid when kBaselineDone is set.
  std::uint64_t baseline_slot = 0;
  std::uint64_t deadline_slots = 0;
  broadcast::FileIndex file = 0;
  std::uint32_t errors_observed = 0;
  std::uint32_t corrupt_detected = 0;
  std::uint8_t flags = 0;
};

/// \brief Aggregate engine counters (benchmark/diagnostic output).
struct EventEngineStats {
  /// Transmission events processed across all shards.
  std::uint64_t events = 0;
  /// Clients simulated.
  std::uint64_t clients = 0;
  /// Clients whose retrieval was walked event by event rather than closed
  /// from their lane's fault counts.
  std::uint64_t clients_walked = 0;
};

/// \brief One transmission of a lane: its absolute slot and the number of
/// faulty (lost or corrupted) transmissions before it in the lane. A lane
/// of c transmissions holds c + 1 of these; the last, a sentinel, has slot
/// UINT32_MAX and the lane's fault total.
struct LaneTransmission {
  std::uint32_t slot = 0;
  std::uint32_t faults_before = 0;
};

/// \brief Discrete-event broadcast-disk engine over a program or epoch
/// schedule plus a realized fault trace (borrowed; one FaultType per slot,
/// trace length = horizon, at most UINT32_MAX slots). Safe for concurrent
/// const use.
class EventEngine {
 public:
  /// Clients per block of Run()'s walk: each shard prepares, drains and
  /// collects this many clients at a time, so a shard holds O(block) state
  /// however many clients it has. Chosen from a 1024/4096/16384 probe
  /// (docs/ARCHITECTURE.md, "Event taxonomy and state layout").
  static constexpr std::uint64_t kBlockClients = 4096;

  /// Both build the lanes, in time and memory linear in the transmissions
  /// before the horizon; the horizon must fit 32 bits (checked).
  EventEngine(const broadcast::BroadcastProgram& program,
              const std::vector<faults::FaultType>& faults);
  EventEngine(const EpochSchedule& schedule,
              const std::vector<faults::FaultType>& faults);

  /// The shared file table (epoch 0's in schedule mode).
  const std::vector<broadcast::ProgramFile>& files() const {
    return epochs_.front().program->files();
  }

  std::uint64_t horizon() const { return faults_->size(); }

  /// Fault effect at `slot` (< horizon).
  faults::FaultType FaultAt(std::uint64_t slot) const {
    return (*faults_)[slot];
  }

  /// Period of the program governing slot `t` (periods_to_recovery).
  std::uint64_t PeriodAt(std::uint64_t t) const;

  /// \brief A transmission cursor: one transmission of a file (its slot
  /// and rotated block) and its place in the lane of the epoch that sends
  /// it, so Advance() can step to the file's next transmission.
  struct LaneCursor {
    std::uint64_t slot = 0;
    std::uint32_t block = 0;
    broadcast::FileIndex file = 0;
    /// The lane's transmissions (count + 1 entries), the cursor's ordinal
    /// among them, and the file's n (the rotation's modulus).
    const LaneTransmission* lane = nullptr;
    std::uint32_t ordinal = 0;
    std::uint32_t count = 0;
    std::uint32_t n = 0;
    /// Epoch whose lane the cursor is on.
    std::uint32_t epoch = 0;
  };

  /// The seek: a cursor at the first transmission of `file` at slot >=
  /// `from` (epoch-aware, with the epoch-local block rotation of
  /// sim/epoch.h), or nullopt when none remains before the horizon. One
  /// lookup in the lane's seek index, then a step over the transmissions
  /// that share its bucket; a lane with none left moves on to the next
  /// epoch's.
  std::optional<LaneCursor> NextTransmissionOf(broadcast::FileIndex file,
                                               std::uint64_t from) const;

  /// Steps `tx` to the file's next transmission: in O(1) the next ordinal
  /// of its lane and the next block of the rotation, or past the lane's
  /// end the first transmission of a later epoch's lane. Returns false,
  /// leaving `tx` unspecified, when no transmission remains before the
  /// horizon.
  bool Advance(LaneCursor* tx) const;

  /// Simulates clients [0, count), where client g is `client_at(g)` — a
  /// pure, thread-safe function of g. Clients are sharded by global index
  /// across `pool` (null = serial), and each shard runs the three
  /// EventShardRunner phases over consecutive blocks of kBlockClients; the
  /// result is bit-identical to the slot-by-slot engine and to any other
  /// thread count. Every client must name a known file and start before
  /// the horizon (checked). Fills `stats` when non-null. A non-null
  /// `timeline` (geometry covering this horizon) additionally receives
  /// every outcome bucketed by completion slot; per-shard timelines merge
  /// exactly in shard order, so the snapshot stream inherits the same
  /// bit-identical-at-any-thread-count contract as the metrics. A non-null
  /// `trace` (obs/trace.h) captures causal spans of the requests its
  /// options trigger on via the shared walker (sim/trace_walk.h); shard
  /// sinks merge in shard order, so the rendered trace is byte-identical
  /// to the slot engine's at any thread count.
  SimulationMetrics Run(std::uint64_t count,
                        const std::function<EventClient(std::uint64_t)>&
                            client_at,
                        runtime::ThreadPool* pool = nullptr,
                        EventEngineStats* stats = nullptr,
                        obs::Timeline* timeline = nullptr,
                        obs::TraceSink* trace = nullptr) const;

 private:
  friend class EventShardRunner;

  struct EpochRef {
    std::uint64_t start = 0;
    std::uint64_t end = 0;  // Exclusive; UINT64_MAX for the last epoch.
    const broadcast::BroadcastProgram* program = nullptr;
  };

  /// One (epoch, file)'s transmissions in [base, end). Its seek index
  /// splits [base, end) into buckets of 2^shift slots, no more of them
  /// than the lane has transmissions (one for an empty lane), each holding
  /// the ordinal of the first transmission at or after the bucket's start.
  struct Lane {
    std::uint64_t base = 0;  // The epoch's start slot.
    std::uint64_t end = 0;   // min(epoch end, horizon).
    std::size_t first = 0;   // Offset of the lane in lane_tx_.
    std::size_t seek = 0;    // Offset of its buckets in seek_.
    std::uint32_t count = 0;
    std::uint32_t shift = 0;
    // The file's geometry; n is also the rotation's modulus.
    std::uint32_t m = 0;
    std::uint32_t n = 0;
  };

  std::size_t EpochIndexAt(std::uint64_t t) const;
  void BuildLanes();
  /// A cursor at ordinal `k` (< count) of `lane`, one of `file`'s, with
  /// block 0: right for k = 0, and the caller's to set to k mod n
  /// otherwise.
  LaneCursor CursorAt(const Lane& lane, broadcast::FileIndex file,
                      std::uint32_t k) const {
    LaneCursor tx;
    tx.lane = lane_tx_.data() + lane.first;
    tx.slot = tx.lane[k].slot;
    tx.file = file;
    tx.ordinal = k;
    tx.count = lane.count;
    tx.n = lane.n;
    tx.epoch = static_cast<std::uint32_t>(
        static_cast<std::size_t>(&lane - lanes_.data()) / file_count_);
    return tx;
  }
  /// The seek: the lane holding the first transmission of `file` at slot
  /// >= `from` and, in `*k`, its ordinal there; null when none remains
  /// before the horizon.
  const Lane* Seek(broadcast::FileIndex file, std::uint64_t from,
                   std::uint32_t* k) const;

  /// Captures the finished client's causal span into `sink`; `trigger` is
  /// the sink's nonzero TriggerFor on `outcome`. Replays via the shared
  /// walker, with a lane cursor stepped from the client's start as the
  /// jump source.
  void RecordRetrievalTrace(obs::TraceSink* sink, std::uint64_t request_id,
                            const ClientState& st,
                            const RetrievalOutcome& outcome,
                            std::uint8_t trigger) const;

  std::vector<EpochRef> epochs_;
  const std::vector<faults::FaultType>* faults_;
  /// Lanes of the epochs that start before the horizon, epoch-major:
  /// lanes_[e * file count + f]. Their transmissions and seek buckets,
  /// each sized exactly.
  std::vector<Lane> lanes_;
  std::size_t file_count_ = 0;
  std::vector<LaneTransmission> lane_tx_;
  std::vector<std::uint32_t> seek_;
};

inline bool EventEngine::Advance(LaneCursor* tx) const {
  if (++tx->ordinal < tx->count) {
    tx->slot = tx->lane[tx->ordinal].slot;
    if (++tx->block == tx->n) tx->block = 0;
    return true;
  }
  // Past the lane: the next epoch's first transmission, where the rotation
  // restarts. At the horizon no lane is left and the chain ends.
  for (std::size_t e = tx->epoch + 1; e * file_count_ < lanes_.size(); ++e) {
    const Lane& lane = lanes_[e * file_count_ + tx->file];
    if (lane.count > 0) {
      *tx = CursorAt(lane, tx->file, 0);
      return true;
    }
  }
  return false;
}

/// \brief The event loop over a contiguous range of global client indices:
/// client states and the spill scratch. EventEngine::Run drives it one
/// block at a time, reusing its storage. Exposed (rather than hidden inside
/// EventEngine::Run) so pipebench can time the phases and the unit tests
/// can drive them separately — in particular the allocation-count check
/// around Drain() and direct state inspection.
class EventShardRunner {
 public:
  explicit EventShardRunner(const EventEngine& engine) : engine_(&engine) {}

  /// Materializes states for clients [begin, end) of `client_at` and sizes
  /// the spill scratch for the engine's widest file. Allocates only past
  /// the capacity of an earlier range; checks every client's validity
  /// (known file, start before horizon).
  void Prepare(std::uint64_t begin, std::uint64_t end,
               const std::function<EventClient(std::uint64_t)>& client_at);

  /// Finishes each client, in ascending client order: from its lane's fault
  /// counts when it loses at most n - m transmissions inside its first
  /// transmission's lane, otherwise by walking its transmissions until it
  /// completes or the horizon runs out. Call once per Prepare. Performs no
  /// heap allocation.
  void Drain();

  /// Folds the finished clients' outcomes into `local` in ascending client
  /// order — the slot engine's exact accumulation order. `local->per_file`
  /// must already be sized to the engine's file count. A non-null
  /// `timeline` receives each outcome bucketed by completion slot. A
  /// non-null `trace` captures triggered spans, with `global_begin` the
  /// global index of local client 0 (the sampling counter's domain).
  void Collect(SimulationMetrics* local,
               obs::Timeline* timeline = nullptr,
               std::uint64_t global_begin = 0,
               obs::TraceSink* trace = nullptr) const;

  std::size_t client_count() const { return states_.size(); }
  const ClientState& state(std::size_t local_index) const {
    return states_[local_index];
  }
  /// Transmissions the drained clients heard, closed or walked.
  std::uint64_t events_processed() const { return events_; }
  /// Drained clients that were walked rather than closed.
  std::uint64_t clients_walked() const { return walked_; }

 private:
  /// The finished client's outcome under the rule both engines share
  /// (FinishOutcome).
  RetrievalOutcome OutcomeOf(const ClientState& st) const;

  const EventEngine* engine_;
  std::vector<ClientState> states_;
  /// Distinct-block sets of the client being walked when its file has
  /// n > 64: ceil(n/64) words of the actual walk's set, then as many of the
  /// baseline's. Holds 2 * ceil(max n / 64) words.
  std::vector<std::uint64_t> scratch_;
  std::uint64_t events_ = 0;
  std::uint64_t walked_ = 0;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_EVENT_ENGINE_H_
