/// \file simulation.h
/// \brief Discrete-slot simulation of clients retrieving files from a
/// broadcast disk over a faulty channel.
///
/// The simulator works at the block-index level (which transmissions a
/// client hears and which dispersed block each carries); the byte-level
/// data plane with real IDA arithmetic lives in server.h / client.h and is
/// exercised by the integration tests. Channel realizations come from the
/// channel model's seed (faults/channel_model.h), so experiments are
/// exactly reproducible.

#ifndef BDISK_SIM_SIMULATION_H_
#define BDISK_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bdisk/delay_analysis.h"
#include "bdisk/program.h"
#include "common/random.h"
#include "common/status.h"
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

/// \brief One client retrieval request.
struct ClientRequest {
  broadcast::FileIndex file = 0;
  /// Slot at which the client starts listening.
  std::uint64_t start_slot = 0;
  /// Latency budget in slots (0 = no deadline).
  std::uint64_t deadline_slots = 0;
  /// Retrieval semantics (IDA: any m distinct blocks; flat: specific m).
  broadcast::ClientModel model = broadcast::ClientModel::kIda;
};

/// \brief Result of one retrieval.
struct RetrievalOutcome {
  /// True iff the client collected everything before the horizon.
  bool completed = false;
  /// Completion slot (valid when completed).
  std::uint64_t completion_slot = 0;
  /// Latency in slots, start to completion inclusive (valid when completed).
  std::uint64_t latency = 0;
  /// Deadline verdict (true when no deadline was set or it was met).
  bool met_deadline = true;
  /// Faulty (lost or corrupted) transmissions of the requested file(s) the
  /// client heard.
  std::uint32_t errors_observed = 0;
  /// Corrupted-and-detected transmissions among errors_observed.
  std::uint32_t corrupt_detected = 0;
  /// Reconstruction stall: latency minus the latency this request would
  /// have had on the lossless channel (valid when completed; 0 when no
  /// fault touched the request).
  std::uint64_t stall_slots = 0;
  /// Broadcast periods spanned before recovery, ceil(latency / period) of
  /// the program governing the start slot (valid when completed).
  std::uint64_t periods_to_recovery = 0;
};

/// \brief The outcome rule of both engines. A walk sets `completed`,
/// `completion_slot`, `errors_observed` and `corrupt_detected`; this
/// derives the rest. Latency counts start to completion inclusive. An
/// incomplete retrieval meets its deadline iff it has none. Periods to
/// recovery is ceil(latency / `period`), the period of the program
/// governing the start. Stall is the completion slot minus the lossless
/// baseline `lossless_completion()`, which is called only for a completed
/// retrieval that heard a fault: the slot engine's baseline is a second
/// walk.
template <typename LosslessCompletion>
RetrievalOutcome FinishOutcome(RetrievalOutcome walk, std::uint64_t start_slot,
                               std::uint64_t deadline_slots,
                               std::uint64_t period,
                               const LosslessCompletion& lossless_completion) {
  if (!walk.completed) {
    walk.completion_slot = 0;
    walk.met_deadline = deadline_slots == 0;
    return walk;
  }
  walk.latency = walk.completion_slot - start_slot + 1;
  walk.met_deadline = deadline_slots == 0 || walk.latency <= deadline_slots;
  walk.periods_to_recovery = (walk.latency + period - 1) / period;
  if (walk.errors_observed > 0) {
    walk.stall_slots = walk.completion_slot - lossless_completion();
  }
  return walk;
}

/// \brief Folds one outcome into `stats` and, when non-null, into
/// `timeline` (bucketed by completion slot). Every simulator metric is
/// accumulated here.
void AccumulateOutcome(const RetrievalOutcome& outcome, OutcomeStats* stats,
                       obs::Timeline* timeline = nullptr);

/// \brief One shard of RunSharded: a contiguous range of global request
/// indices and the shard's own outputs.
struct Shard {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  /// Per-file metrics, sized to the run's file table.
  SimulationMetrics* metrics = nullptr;
  /// Null unless the run records a timeline (reserved for the range).
  obs::Timeline* timeline = nullptr;
  /// Null unless the run traces.
  obs::TraceSink* trace = nullptr;
};

/// \brief The sharded fold behind both engines: splits requests [0, count)
/// across `pool` (null = serial) by runtime::ShardOf, calls `fold_shard`
/// once per non-empty shard, then merges the shards' metrics, timelines
/// and trace sinks in shard order into the returned metrics (named after
/// `files`), `timeline` and `trace`. The merges are exact and in order, so
/// a fold that visits its range in ascending order gives output
/// bit-identical at any thread count.
SimulationMetrics RunSharded(const std::vector<broadcast::ProgramFile>& files,
                             std::uint64_t count, runtime::ThreadPool* pool,
                             obs::Timeline* timeline, obs::TraceSink* trace,
                             const std::function<void(const Shard&)>&
                                 fold_shard);

/// \brief Workload description: independent clients with random start slots.
struct WorkloadConfig {
  /// Retrieval attempts per file.
  std::uint64_t requests_per_file = 1000;
  /// Deadline per file in slots; 0 entries mean "use the file's d^(0)";
  /// empty vector means all files use their d^(0) (or no deadline if the
  /// file has no latency vector).
  std::vector<std::uint64_t> deadline_slots;
  /// Client retrieval semantics.
  broadcast::ClientModel model = broadcast::ClientModel::kIda;
  /// Base RNG seed for start-slot sampling. Draws are indexed, not
  /// sequential: request k of file f samples from RNG stream
  /// `f * requests_per_file + k` of this seed
  /// (runtime::StreamRng), so every request's randomness is independent of
  /// execution order — results are identical for any shard/thread count.
  std::uint64_t seed = 42;
};

/// \brief A real-time transaction touching several data items: it fires at
/// `start_slot` and must have reconstructed *every* listed file within the
/// deadline (the paper's RTDB setting — e.g. an active AWACS transaction
/// reading several object positions before raising an alert).
struct TransactionRequest {
  std::vector<broadcast::FileIndex> files;
  std::uint64_t start_slot = 0;
  /// Joint latency budget in slots (0 = no deadline).
  std::uint64_t deadline_slots = 0;
  broadcast::ClientModel model = broadcast::ClientModel::kIda;
};

/// \brief Workload of independent multi-item transactions: each fires at a
/// random start slot and reads a random `files_per_transaction`-subset of
/// the program's files under one joint deadline.
struct TransactionWorkloadConfig {
  /// Number of transactions to simulate.
  std::uint64_t transactions = 1000;
  /// Data items read per transaction (1 <= value <= file count).
  std::size_t files_per_transaction = 2;
  /// Joint latency budget in slots (0 = no deadline).
  std::uint64_t deadline_slots = 0;
  /// Client retrieval semantics.
  broadcast::ClientModel model = broadcast::ClientModel::kIda;
  /// Base RNG seed; transaction t draws from stream t (runtime::StreamRng),
  /// making results independent of execution order and shard count.
  std::uint64_t seed = 42;
};

/// \brief Completion slot of a faultless distinct-block walk: from
/// `start`, count distinct block indices of `file` among `tx_at(t)` for
/// t in [start, end); returns the slot at which the m-th distinct index
/// arrives (nullopt if it never does). This is the single definition of
/// the stall-metric lossless baseline, shared by the index-level
/// simulator and the byte-level retrieval session.
std::optional<std::uint64_t> LosslessCompletionWalk(
    const std::function<std::optional<broadcast::TransmissionRef>(
        std::uint64_t)>& tx_at,
    broadcast::FileIndex file, std::uint32_t m, std::uint32_t n,
    std::uint64_t start, std::uint64_t end);

/// \brief Block-index-level broadcast-disk simulator.
class Simulator {
 public:
  /// \param program   the broadcast program to execute (borrowed).
  /// \param channel   channel fault model; its counter-based trace over
  ///                  [0, horizon) is the realization, so it is
  ///                  reproducible from the channel's seed alone and
  ///                  identical at any shard or thread count. At the
  ///                  block-index level a corrupted transmission behaves
  ///                  like a loss (the byte-level client detects it by
  ///                  checksum and discards it) but is additionally counted
  ///                  in RetrievalOutcome::corrupt_detected.
  /// \param horizon   number of slots of channel realization to simulate.
  Simulator(const broadcast::BroadcastProgram& program,
            const faults::ChannelModel& channel, std::uint64_t horizon);

  /// Epoch-aware variant: executes `schedule` (borrowed), whose program may
  /// hot-swap at period boundaries. Retrievals transparently span swaps —
  /// the epoch geometry contract (sim/epoch.h) guarantees blocks collected
  /// under different epochs remain mutually reconstructing.
  Simulator(const EpochSchedule& schedule,
            const faults::ChannelModel& channel, std::uint64_t horizon);

  /// Executes a single retrieval against the precomputed channel
  /// realization. Fails on an unknown file or a start beyond the horizon.
  Result<RetrievalOutcome> Retrieve(const ClientRequest& request) const;

  /// Executes a multi-item transaction: completes when the last of its
  /// files completes; `errors_observed` sums over all files.
  Result<RetrievalOutcome> RetrieveTransaction(
      const TransactionRequest& request) const;

  /// Runs `config.requests_per_file` random-start retrievals per file and
  /// aggregates the outcomes. Fails up front on an invalid config,
  /// including a request count (files x requests_per_file) past 64 bits.
  ///
  /// With a non-null `pool`, requests are sharded across its workers and
  /// per-shard metrics are merged; because draws are indexed by request
  /// (WorkloadConfig::seed) and the stats accumulators merge exactly, the
  /// result is bit-identical to the serial path for any thread count.
  ///
  /// A non-null `timeline` (obs/snapshot.h; geometry covering this
  /// horizon) additionally receives every outcome bucketed by completion
  /// slot, under the same exact-merge determinism contract — the rendered
  /// snapshot stream is byte-identical at any thread count and across the
  /// slot and event engines.
  ///
  /// A non-null `trace` (obs/trace.h) captures the causal span of every
  /// request its options trigger on (counter-based sampling by global
  /// request index plus anomaly triggers), built post hoc by the shared
  /// walker (sim/trace_walk.h). Shard-local sinks merge in shard order,
  /// so the rendered trace is byte-identical at any thread count and
  /// across both engines.
  Result<SimulationMetrics> RunWorkload(const WorkloadConfig& config,
                                        runtime::ThreadPool* pool = nullptr,
                                        obs::Timeline* timeline = nullptr,
                                        obs::TraceSink* trace =
                                            nullptr) const;

  /// Discrete-event equivalent of RunWorkload (sim/event_engine.h): the
  /// identical request generation (same counter-based per-request draws),
  /// the identical validation, and a *byte-identical* SimulationMetrics
  /// snapshot (MetricsToJson) at any thread count — but a retrieval that
  /// loses at most n - m of its file's transmissions in one epoch costs
  /// O(1), any other O(transmissions of its file heard), instead of
  /// O(slots spanned), in client state for one block of clients per
  /// thread.
  Result<SimulationMetrics> RunWorkloadEvented(const WorkloadConfig& config,
                                               runtime::ThreadPool* pool =
                                                   nullptr,
                                               obs::Timeline* timeline =
                                                   nullptr,
                                               obs::TraceSink* trace =
                                                   nullptr) const;

  /// Runs `config.transactions` random multi-item transactions and
  /// aggregates the outcomes. Same sharding and determinism contract as
  /// RunWorkload.
  Result<TransactionMetrics> RunTransactionWorkload(
      const TransactionWorkloadConfig& config,
      runtime::ThreadPool* pool = nullptr) const;

  /// Replays an explicit request list (e.g. a recorded or generated trace)
  /// and aggregates per-file metrics. Requests are sharded by index across
  /// `pool` with the usual exact-merge determinism contract; results are
  /// bit-identical to the serial path at any thread count. Fails up front
  /// on any invalid request (unknown file, start beyond the horizon).
  Result<SimulationMetrics> RunRequests(
      const std::vector<ClientRequest>& requests,
      runtime::ThreadPool* pool = nullptr,
      obs::Timeline* timeline = nullptr,
      obs::TraceSink* trace = nullptr) const;

  /// Number of faulty (lost or corrupted) slots in the realization
  /// (diagnostics).
  std::uint64_t CorruptedSlotCount() const;

  std::uint64_t horizon() const { return faults_.size(); }

 private:
  /// Shared file table (epoch geometry is invariant, so epoch 0's in epoch
  /// mode).
  const std::vector<broadcast::ProgramFile>& files() const;
  /// Transmission at absolute slot `t` under the program or schedule.
  std::optional<broadcast::TransmissionRef> TxAt(std::uint64_t t) const;
  /// Largest data cycle (horizon-tail sizing).
  std::uint64_t MaxDataCycle() const;
  /// Completion slot of a faultless retrieval of `file` from `start`
  /// (nullopt when even the lossless channel cannot complete it within the
  /// horizon) — the stall baseline.
  std::optional<std::uint64_t> LosslessCompletionSlot(
      broadcast::FileIndex file, std::uint64_t start) const;
  /// Period of the program governing slot `t`.
  std::uint64_t PeriodAt(std::uint64_t t) const;
  /// Validates one request: a known file, a start before the horizon and
  /// an admissible client model.
  Status CheckRequest(const ClientRequest& request) const;
  /// Bound of the start draw for a deadline: the horizon minus a tail of
  /// max(deadline, 4 data cycles), so retrievals are not cut off.
  Result<std::uint64_t> StartRange(std::uint64_t deadline) const;
  /// The slot walk of `file` from `start`: fills `completed`,
  /// `completion_slot`, `errors_observed` and `corrupt_detected`.
  RetrievalOutcome SlotWalk(broadcast::FileIndex file,
                            std::uint64_t start) const;
  /// A validated WorkloadConfig's request generator (simulation.cc).
  struct WorkloadDraws;
  /// Shared up-front validation of RunWorkload / RunWorkloadEvented
  /// (identical status messages on both paths, so the engines agree on
  /// errors too).
  Result<WorkloadDraws> ValidateWorkload(const WorkloadConfig& config) const;
  /// The slot engine's fold: retrieves `request_at(g)` for g in
  /// [0, count), which must all be valid. A template (defined in
  /// simulation.cc) so the per-request draw inlines into the walk loop.
  template <typename RequestAt>
  SimulationMetrics FoldRequests(std::uint64_t count,
                                 const RequestAt& request_at,
                                 runtime::ThreadPool* pool,
                                 obs::Timeline* timeline,
                                 obs::TraceSink* trace) const;
  /// Captures `request`'s causal span into `sink` when its options
  /// trigger on the (request_id, outcome) pair; no-op otherwise.
  void RecordTraceSpan(obs::TraceSink* sink, std::uint64_t request_id,
                       const ClientRequest& request,
                       const RetrievalOutcome& outcome) const;

  // Exactly one of the two is non-null.
  const broadcast::BroadcastProgram* program_ = nullptr;
  const EpochSchedule* schedule_ = nullptr;
  // One fault effect per slot of the realization.
  std::vector<faults::FaultType> faults_;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_SIMULATION_H_
