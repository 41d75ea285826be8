/// \file adaptive_loop.h
/// \brief The closed adaptation loop: demand in, epoch schedule out.
///
/// AdaptiveController chains the three adaptive components — estimator,
/// optimizer, hot-swap coordinator — into the production control loop: at
/// every adaptation-interval boundary it folds the interval's request
/// counts, re-optimizes against the decayed demand estimate, and schedules
/// a hot swap when (and only when) the candidate's exact expected mean
/// delay beats the incumbent's by a configurable margin.
///
/// Determinism contract: the controller consumes only request *arrivals*
/// (not retrieval outcomes), so the resulting epoch schedule is a pure
/// function of the request trace and options — independent of thread
/// count, and causally valid: the program governing slot t depends only on
/// requests issued before t's interval. This is what lets the adaptive
/// experiment first derive the full schedule and then replay the trace
/// through the sharded simulator under the usual bit-exact parallelism
/// contract.
///
/// DriftingZipfWorkload + GenerateDriftingRequests model the demand shift
/// the subsystem exists for: Zipf(theta)-skewed requests whose popularity
/// ranking *reverses* at `flip_slot` (yesterday's cold files are today's
/// hot ones). RunAdaptiveExperiment replays one such trace against the
/// static initial program and against the adaptive schedule and reports
/// both metric sets.

#ifndef BDISK_ADAPTIVE_ADAPTIVE_LOOP_H_
#define BDISK_ADAPTIVE_ADAPTIVE_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "adaptive/demand_estimator.h"
#include "adaptive/hot_swap.h"
#include "adaptive/program_optimizer.h"
#include "bdisk/flat_builder.h"
#include "common/status.h"
#include "faults/channel_model.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "sim/metrics.h"
#include "sim/simulation.h"

namespace bdisk::adaptive {

/// \brief Control-loop tuning.
struct AdaptiveLoopOptions {
  /// Estimator decay per adaptation interval.
  double decay = 0.3;
  /// Re-optimize only after at least this many requests in an interval
  /// (noise gate).
  std::uint64_t min_interval_requests = 16;
  /// Swap only if the candidate's expected mean delay undercuts the
  /// incumbent's (under the same demand estimate) by this fraction.
  double improvement_threshold = 0.05;
  /// Candidate search options.
  OptimizerOptions optimizer;
};

/// \brief Estimator -> optimizer -> hot-swap, one interval at a time.
class AdaptiveController {
 public:
  /// \param files    canonical file population (geometry fixed for the
  ///                 lifetime of the controller).
  /// \param initial  program governing from slot 0 (must match `files`).
  static Result<AdaptiveController> Create(
      std::vector<broadcast::FlatFileSpec> files,
      broadcast::BroadcastProgram initial, AdaptiveLoopOptions options = {});

  /// Closes one adaptation interval: folds `counts` (requests per file
  /// observed during the interval) into the estimator, re-optimizes, and —
  /// if the improvement clears the threshold — schedules a hot swap at the
  /// first period boundary at or after `interval_end_slot`. Returns true
  /// iff a swap was scheduled.
  Result<bool> EndInterval(const std::vector<std::uint64_t>& counts,
                           std::uint64_t interval_end_slot,
                           runtime::ThreadPool* pool = nullptr);

  const sim::EpochSchedule& schedule() const {
    return coordinator_.schedule();
  }
  const DemandEstimator& estimator() const { return estimator_; }
  std::size_t swap_count() const { return coordinator_.epoch_count() - 1; }

 private:
  AdaptiveController(DemandEstimator estimator, ProgramOptimizer optimizer,
                     HotSwapCoordinator coordinator,
                     AdaptiveLoopOptions options)
      : estimator_(std::move(estimator)), optimizer_(std::move(optimizer)),
        coordinator_(std::move(coordinator)), options_(std::move(options)) {}

  DemandEstimator estimator_;
  ProgramOptimizer optimizer_;
  HotSwapCoordinator coordinator_;
  AdaptiveLoopOptions options_;
};

/// \brief Zipf-skewed request trace whose popularity ranking reverses at
/// `flip_slot`.
struct DriftingZipfWorkload {
  /// Total requests, spread evenly over [0, arrival_horizon).
  std::uint64_t requests = 20000;
  /// Zipf skew parameter.
  double theta = 0.95;
  /// Arrivals occupy [0, arrival_horizon).
  std::uint64_t arrival_horizon = 100000;
  /// Requests arriving at or after this slot draw from the *reversed*
  /// popularity ranking.
  std::uint64_t flip_slot = 50000;
  /// Base seed; request k draws from runtime::StreamRng(seed, k), so the
  /// trace is independent of generation order.
  std::uint64_t seed = 1;
};

/// \brief Generates the request trace. Arrivals are near-uniformly spread
/// over [0, arrival_horizon) but per-request jitter makes them not
/// strictly sorted; consumers must bin or sort by start_slot themselves.
std::vector<sim::ClientRequest> GenerateDriftingRequests(
    const DriftingZipfWorkload& workload, std::size_t file_count);

/// \brief Static-vs-adaptive comparison on one drifting trace.
struct AdaptiveExperimentResult {
  /// Replay against the initial program, never re-optimized.
  sim::SimulationMetrics static_metrics;
  /// Replay against the controller's epoch schedule.
  sim::SimulationMetrics adaptive_metrics;
  /// Hot swaps the controller scheduled.
  std::size_t swaps = 0;
  /// The adaptive timeline (for inspection / further replay).
  sim::EpochSchedule schedule;
  /// Snapshot timelines of the two replays (obs/snapshot.h), populated iff
  /// the experiment was run with a nonzero snapshot interval. The replay
  /// horizon is computed inside the experiment, so the timelines are built
  /// here rather than passed in.
  std::unique_ptr<obs::Timeline> static_timeline;
  std::unique_ptr<obs::Timeline> adaptive_timeline;
  /// Causal trace sinks of the two replays (obs/trace.h), populated iff
  /// trace options were supplied. The adaptive sink additionally carries
  /// one swap-decision span per controller interval (kind kSwapDecision,
  /// request_id = interval index, completed = swapped), recorded before
  /// the replay's retrieval spans.
  std::unique_ptr<obs::TraceSink> static_trace;
  std::unique_ptr<obs::TraceSink> adaptive_trace;
};

/// \brief Runs the full experiment: walks the controller over
/// `interval_slots`-sized windows of the trace, then replays the identical
/// trace against both timelines over `channel`'s counter-based fault trace
/// (faults/channel_model.h), so both replays see the identical realization
/// and the adaptive replay composes with the full fault-injection taxonomy
/// (i.i.d. or bursty loss, corruption, outages).
///
/// `initial` (when non-null) is both the static baseline and the
/// controller's starting program — e.g. the planner's pinwheel program for
/// `bdisk_planner --adaptive`. When null, the initial program is seeded
/// from the optimizer under *pre-flip* demand, so the static baseline is
/// well tuned for yesterday's traffic, not a strawman.
/// A nonzero `snapshot_interval_slots` additionally records both replays
/// into snapshot timelines (AdaptiveExperimentResult::*_timeline) at that
/// sim-clock granularity, for streaming via obs::WriteSnapshotStream.
///
/// Non-null `trace_options` captures both replays' causal spans into
/// AdaptiveExperimentResult::static_trace / adaptive_trace, plus one
/// swap-decision span per controller interval into the adaptive sink.
/// `on_replay_timeline` (when set, and snapshotting is on) is invoked with
/// each replay's finished timeline right after that replay completes —
/// before the other replay runs — so callers can stream per-replay state
/// (e.g. emit then reset the global metric registry) without the two
/// replays bleeding into each other; a non-OK return aborts the
/// experiment.
Result<AdaptiveExperimentResult> RunAdaptiveExperiment(
    const std::vector<broadcast::FlatFileSpec>& files,
    const DriftingZipfWorkload& workload, std::uint64_t interval_slots,
    const AdaptiveLoopOptions& options, const faults::ChannelModel& channel,
    runtime::ThreadPool* pool = nullptr,
    const broadcast::BroadcastProgram* initial = nullptr,
    std::uint64_t snapshot_interval_slots = 0,
    const obs::TraceOptions* trace_options = nullptr,
    const std::function<Status(const obs::Timeline& timeline, bool adaptive)>&
        on_replay_timeline = {});

}  // namespace bdisk::adaptive

#endif  // BDISK_ADAPTIVE_ADAPTIVE_LOOP_H_
