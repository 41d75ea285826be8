/// \file event_engine.h
/// \brief Discrete-event simulation core for million-client fleets.
///
/// The slot-by-slot simulator (sim/simulation.h) walks every slot of every
/// retrieval, paying O(latency in slots) per client even though a client
/// only *does* anything on the slots carrying its own file. The event
/// engine removes the dead time: each client is a compact state record
/// (~80 bytes), and the only events are "client c hears a transmission of
/// its file at slot s". Events live in a binary min-heap keyed by
/// (slot, client index) — the client tie-break makes the processing order
/// fully deterministic — and a client is re-armed after each event with
/// the *next* transmission of its file, found by O(log occurrences) jump
/// arithmetic over the program's occurrence lists (epoch hot-swaps
/// included). Cost per retrieval drops from O(slots spanned) to
/// O(transmissions of the file heard), which is what lets one box carry
/// 1M+ concurrent clients over a multi-hour trace.
///
/// **Determinism contract (extends docs/ARCHITECTURE.md).** The engine is
/// proven output-*identical* to the slot-by-slot engine, not merely
/// statistically equivalent: for the same (program/schedule, fault trace,
/// client list), `MetricsToJson` of the evented run is byte-identical to
/// the slot engine's, serial or sharded, at any thread count
/// (tests/engine_equivalence_test.cc). The ingredients:
///
///  * clients are sharded by global index with the same ShardOf split as
///    the slot engine, one event heap per shard — no cross-shard state;
///  * every per-client quantity (completion slot, errors, stall baseline)
///    is a pure function of the shared fault trace and the schedule, so
///    heap processing order cannot change it;
///  * after the event loop drains, outcomes are folded into the metrics
///    in ascending client order — the exact accumulation order of the
///    slot engine — and shards merge with the exact RunningStats merge.
///
/// Steady-state event processing performs no heap allocation: the event
/// heap and all client state (including distinct-block spill bitmaps for
/// files with n > 64) are preallocated in Prepare()
/// (tests/event_engine_test.cc counts allocations to enforce this).

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

/// \brief Binary min-heap of pending client events, keyed by slot with
/// ties broken by client index (deterministic processing order). Push is
/// allocation-free once Reserve()d.
class EventHeap {
 public:
  struct Event {
    /// Absolute slot of the transmission this client hears next.
    std::uint64_t slot = 0;
    /// Shard-local client index (the tie-break key).
    std::uint32_t client = 0;
    /// Rotated block index carried by that transmission.
    std::uint32_t block = 0;
  };

  /// Strict (slot, client) ordering; block is payload, never a key.
  static bool Before(const Event& a, const Event& b) {
    return a.slot != b.slot ? a.slot < b.slot : a.client < b.client;
  }

  void Reserve(std::size_t capacity) { heap_.reserve(capacity); }
  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }
  const Event& Top() const { return heap_.front(); }

  void Push(const Event& e);
  Event Pop();

 private:
  std::vector<Event> heap_;
};

/// \brief Compact per-client simulation state (~80 bytes). Files with
/// n <= 64 track their distinct-block sets in the two inline bitmap words;
/// larger n spills into the shard's preallocated bitmap arena.
struct ClientState {
  static constexpr std::uint32_t kNoSpill = 0xFFFFFFFFu;
  static constexpr std::uint8_t kCompleted = 1;     // Collected m blocks.
  static constexpr std::uint8_t kBaselineDone = 2;  // Lossless walk done.
  static constexpr std::uint8_t kDone = 4;          // No more events.

  std::uint64_t start_slot = 0;
  /// Distinct-block bitmap of the actual (fault-respecting) walk.
  std::uint64_t have_bits = 0;
  /// Distinct-block bitmap of the lossless-baseline walk (stall metric).
  std::uint64_t base_bits = 0;
  std::uint64_t completion_slot = 0;
  std::uint64_t baseline_slot = 0;
  std::uint64_t deadline_slots = 0;
  broadcast::FileIndex file = 0;
  /// Word offset into the shard's spill arena, kNoSpill when inline.
  std::uint32_t spill_offset = kNoSpill;
  std::uint32_t errors_observed = 0;
  std::uint32_t corrupt_detected = 0;
  std::uint32_t distinct = 0;
  std::uint32_t base_distinct = 0;
  std::uint8_t flags = 0;
};

/// \brief Aggregate engine counters (benchmark/diagnostic output).
struct EventEngineStats {
  /// Transmission events processed across all shards.
  std::uint64_t events = 0;
  /// Clients simulated.
  std::uint64_t clients = 0;
};

/// \brief Discrete-event broadcast-disk engine over a program or epoch
/// schedule plus a realized fault trace (borrowed; one FaultType per slot,
/// trace length = horizon). Safe for concurrent const use.
class EventEngine {
 public:
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

  struct NextTx {
    std::uint64_t slot = 0;
    std::uint32_t block = 0;
  };

  /// First transmission of `file` at slot >= `from` (epoch-aware, with the
  /// epoch-local block rotation of sim/epoch.h), or nullopt when none
  /// remains before the horizon. O(log occurrences + epochs crossed).
  std::optional<NextTx> NextTransmissionOf(broadcast::FileIndex file,
                                           std::uint64_t from) const;

  /// Simulates clients [0, count), where client g is `client_at(g)` — a
  /// pure, thread-safe function of g. Clients are sharded by global index
  /// across `pool` (null = serial) with one event heap per shard; the
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

  std::size_t EpochIndexAt(std::uint64_t t) const;

  /// Captures the finished client's causal span into `sink` when its
  /// options trigger on `outcome`; no-op otherwise. Replays via the shared
  /// walker with NextTransmissionOf as the jump source.
  void RecordRetrievalTrace(obs::TraceSink* sink, std::uint64_t request_id,
                            const ClientState& st,
                            const RetrievalOutcome& outcome) const;

  std::vector<EpochRef> epochs_;
  const std::vector<faults::FaultType>* faults_;
};

/// \brief One shard's event loop: client states, spill arena, and event
/// heap for a contiguous range of global client indices. Exposed (rather
/// than hidden inside EventEngine::Run) so the unit tests can drive the
/// phases separately — in particular the allocation-count check around
/// Drain() and direct state inspection.
class EventShardRunner {
 public:
  explicit EventShardRunner(const EventEngine& engine) : engine_(&engine) {}

  /// Materializes states for clients [begin, end) of `client_at`, assigns
  /// spill bitmaps, and seeds each client's first event. Allocates; checks
  /// every client's validity (known file, start before horizon).
  void Prepare(std::uint64_t begin, std::uint64_t end,
               const std::function<EventClient(std::uint64_t)>& client_at);

  /// Processes events to exhaustion. Performs no heap allocation.
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
  std::uint64_t events_processed() const { return events_; }

 private:
  /// The finished client's outcome under the rule both engines share
  /// (FinishOutcome).
  RetrievalOutcome OutcomeOf(const ClientState& st) const;

  /// Marks `block` in the actual / baseline distinct set; returns true iff
  /// it was already present.
  bool TestSetHave(ClientState* st, std::uint32_t block, std::uint32_t n);
  bool TestSetBase(ClientState* st, std::uint32_t block, std::uint32_t n);

  const EventEngine* engine_;
  std::vector<ClientState> states_;
  /// Spill bitmap arena for files with n > 64: per spilled client,
  /// ceil(n/64) words of `have` followed by ceil(n/64) words of `base`.
  std::vector<std::uint64_t> arena_;
  EventHeap heap_;
  std::uint64_t events_ = 0;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_EVENT_ENGINE_H_
