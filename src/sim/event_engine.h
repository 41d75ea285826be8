/// \file event_engine.h
/// \brief Discrete-event simulation core for million-client fleets.
///
/// The slot-by-slot simulator (sim/simulation.h) walks every slot of every
/// retrieval, paying O(latency in slots) per client even though a client
/// only *does* anything on the slots carrying its own file. The event
/// engine removes the dead time: each client is a compact state record
/// (48 bytes), and the only events are "client c hears a transmission of
/// its file at slot s". Clients only listen, so no client's events depend
/// on another's: the engine needs no event queue. It walks one client's
/// chain of transmissions to completion, then the next client's, in
/// ascending client index. A chain starts with one seek — jump arithmetic
/// over the program's occurrence lists, O(log occurrences) — and then
/// steps a transmission cursor in O(1): the file's next occurrence is the
/// next entry of its list, and its block the next in the rotation. The
/// cursor seeks again only where an epoch hot-swap ends its program. Cost
/// per retrieval drops from O(slots spanned) to O(transmissions of the
/// file heard), and Run() walks each shard in fixed blocks of
/// kBlockClients clients, so engine memory is O(block) per thread however
/// large the fleet.
///
/// **Determinism contract (extends docs/ARCHITECTURE.md).** The engine is
/// proven output-*identical* to the slot-by-slot engine, not merely
/// statistically equivalent: for the same (program/schedule, fault trace,
/// client list), `MetricsToJson` of the evented run is byte-identical to
/// the slot engine's, serial or sharded, at any thread count
/// (tests/engine_equivalence_test.cc). The ingredients:
///
///  * clients are sharded by global index with the same ShardOf split as
///    the slot engine, and each shard walks its clients in index order, in
///    contiguous blocks — no cross-shard or cross-client state;
///  * every per-client quantity (completion slot, errors, stall baseline)
///    is a pure function of the shared fault trace and the schedule, so the
///    order in which clients are walked cannot change it;
///  * after each block drains, outcomes are folded into the metrics in
///    ascending client order — the exact accumulation order of the slot
///    engine — and shards merge with the exact RunningStats merge.
///
/// Steady-state event processing performs no heap allocation: a client's
/// walk keeps its distinct-block sets in locals (files with n > 64 in the
/// runner's scratch, sized in Prepare()), and tests/event_engine_test.cc
/// counts allocations to enforce this.

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
/// request and the outcome of its walk. The distinct-block sets live only
/// in the walk (EventShardRunner::Drain), so none is kept here.
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
};

/// \brief Discrete-event broadcast-disk engine over a program or epoch
/// schedule plus a realized fault trace (borrowed; one FaultType per slot,
/// trace length = horizon). Safe for concurrent const use.
class EventEngine {
 public:
  /// Clients per block of Run()'s walk: each shard prepares, drains and
  /// collects this many clients at a time, so a shard holds O(block) state
  /// however many clients it has. Chosen from a 1024/4096/16384 probe
  /// (docs/ARCHITECTURE.md, "Event taxonomy and state layout").
  static constexpr std::uint64_t kBlockClients = 4096;

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
  /// and rotated block) plus its place in the occurrence list of the epoch
  /// that sends it, so Advance() can step to the file's next transmission.
  struct NextTx {
    std::uint64_t slot = 0;
    std::uint32_t block = 0;
    broadcast::FileIndex file = 0;
    /// Index of `slot` in the epoch program's OccurrencesOf(file).
    std::uint64_t occurrence = 0;
    /// Absolute slot at which `slot`'s period starts.
    std::uint64_t period_base = 0;
    /// First slot past the epoch, capped at the horizon.
    std::uint64_t epoch_end = 0;
    /// The epoch program's occurrence list of `file`, its length, its
    /// period, and the file's n (the rotation's modulus).
    const std::uint64_t* occurrences = nullptr;
    std::uint64_t count = 0;
    std::uint64_t period = 0;
    std::uint32_t n = 0;
  };

  /// The seek: a cursor at the first transmission of `file` at slot >=
  /// `from` (epoch-aware, with the epoch-local block rotation of
  /// sim/epoch.h), or nullopt when none remains before the horizon.
  /// O(log occurrences + epochs crossed).
  std::optional<NextTx> NextTransmissionOf(broadcast::FileIndex file,
                                           std::uint64_t from) const;

  /// Steps `tx` to the file's next transmission in O(1): the next
  /// occurrence (wrapping into the next period) and the next block of the
  /// rotation. Seeks again only past the cursor's epoch. Returns false,
  /// leaving `tx` unspecified, when no transmission remains before the
  /// horizon.
  bool Advance(NextTx* tx) const;

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

  std::size_t EpochIndexAt(std::uint64_t t) const;

  /// Captures the finished client's causal span into `sink`; `trigger` is
  /// the sink's nonzero TriggerFor on `outcome`. Replays via the shared
  /// walker with NextTransmissionOf as the jump source.
  void RecordRetrievalTrace(obs::TraceSink* sink, std::uint64_t request_id,
                            const ClientState& st,
                            const RetrievalOutcome& outcome,
                            std::uint8_t trigger) const;

  std::vector<EpochRef> epochs_;
  const std::vector<faults::FaultType>* faults_;
};

inline bool EventEngine::Advance(NextTx* tx) const {
  if (++tx->occurrence == tx->count) {
    tx->occurrence = 0;
    tx->period_base += tx->period;
  }
  tx->slot = tx->period_base + tx->occurrences[tx->occurrence];
  if (++tx->block == tx->n) tx->block = 0;
  if (tx->slot < tx->epoch_end) return true;
  // Past the epoch: seek from the next epoch's start, where the rotation
  // restarts. At the horizon the seek finds nothing and the chain ends.
  const std::optional<NextTx> next = NextTransmissionOf(tx->file,
                                                        tx->epoch_end);
  if (!next.has_value()) return false;
  *tx = *next;
  return true;
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

  /// Walks each client's transmissions from its start slot, in ascending
  /// client order, until it completes or the horizon runs out. Call once
  /// per Prepare. Performs no heap allocation.
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

  const EventEngine* engine_;
  std::vector<ClientState> states_;
  /// Distinct-block sets of the client being walked when its file has
  /// n > 64: ceil(n/64) words of the actual walk's set, then as many of the
  /// baseline's. Holds 2 * ceil(max n / 64) words.
  std::vector<std::uint64_t> scratch_;
  std::uint64_t events_ = 0;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_EVENT_ENGINE_H_
