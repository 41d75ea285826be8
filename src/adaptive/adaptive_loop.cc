#include "adaptive/adaptive_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/zipf.h"
#include "obs/registry.h"
#include "runtime/rng_stream.h"

namespace bdisk::adaptive {

namespace {

/// Estimator decay per adaptation interval.
constexpr double kDecay = 0.3;
/// Re-optimize only after at least this many requests in an interval (noise
/// gate).
constexpr std::uint64_t kMinIntervalRequests = 16;
/// Swap only if the candidate's expected mean delay undercuts the
/// incumbent's (under the same demand estimate) by this fraction.
constexpr double kImprovementThreshold = 0.05;

}  // namespace

Result<AdaptiveController> AdaptiveController::Create(
    std::vector<broadcast::FlatFileSpec> files,
    broadcast::BroadcastProgram initial) {
  if (initial.file_count() != files.size()) {
    return Status::InvalidArgument(
        "AdaptiveController: initial program has " +
        std::to_string(initial.file_count()) + " files, expected " +
        std::to_string(files.size()));
  }
  for (std::size_t f = 0; f < files.size(); ++f) {
    const broadcast::ProgramFile& pf = initial.files()[f];
    if (pf.name != files[f].name || pf.m != files[f].m ||
        pf.n != files[f].n) {
      return Status::InvalidArgument(
          "AdaptiveController: initial program file " + std::to_string(f) +
          " ('" + pf.name + "') does not match the canonical population "
          "entry ('" + files[f].name + "')");
    }
  }
  DemandEstimator estimator(files.size(), kDecay);
  BDISK_ASSIGN_OR_RETURN(ProgramOptimizer optimizer,
                         ProgramOptimizer::Create(files));
  HotSwapCoordinator coordinator(std::move(initial));
  return AdaptiveController(std::move(estimator), std::move(optimizer),
                            std::move(coordinator));
}

Result<bool> AdaptiveController::EndInterval(
    const std::vector<std::uint64_t>& counts,
    std::uint64_t interval_end_slot, runtime::ThreadPool* pool) {
  if (counts.size() != estimator_.file_count()) {
    return Status::InvalidArgument(
        "AdaptiveController: counts for " + std::to_string(counts.size()) +
        " files, expected " + std::to_string(estimator_.file_count()));
  }
  std::uint64_t interval_total = 0;
  for (std::uint64_t c : counts) interval_total += c;
  estimator_.ObserveCounts(counts);
  estimator_.FoldInterval();
  obs::GlobalRegistry().GetCounter("adaptive.intervals")->Add();
  if (interval_total < kMinIntervalRequests) return false;

  // One timer per swap decision (optimize + evaluate + maybe schedule).
  obs::ScopedPhaseTimer timer(obs::GlobalRegistry().GetHistogram(
      "phase.swap_decision_us", obs::PhaseTimerBoundsUs()));
  const std::vector<double> demand = estimator_.Shares();
  BDISK_ASSIGN_OR_RETURN(OptimizedProgram candidate,
                         optimizer_.Optimize(demand, pool));
  BDISK_ASSIGN_OR_RETURN(
      ProgramScore incumbent,
      EvaluateProgram(coordinator_.current_program(), demand));
  if (candidate.score.expected_mean_delay >=
      incumbent.expected_mean_delay * (1.0 - kImprovementThreshold)) {
    return false;
  }
  BDISK_ASSIGN_OR_RETURN(std::uint64_t swap_slot,
                         coordinator_.ScheduleSwap(
                             std::move(candidate.program),
                             interval_end_slot));
  (void)swap_slot;
  obs::GlobalRegistry().GetCounter("adaptive.swaps")->Add();
  return true;
}

std::vector<sim::ClientRequest> GenerateDriftingRequests(
    const DriftingZipfWorkload& workload, std::size_t file_count) {
  BDISK_CHECK(file_count > 0);
  BDISK_CHECK(workload.arrival_horizon > 0);
  const ZipfDistribution zipf(file_count, workload.theta);
  const std::uint64_t spacing =
      std::max<std::uint64_t>(1, workload.arrival_horizon / std::max<
                                     std::uint64_t>(1, workload.requests));
  std::vector<sim::ClientRequest> requests(workload.requests);
  for (std::uint64_t k = 0; k < workload.requests; ++k) {
    Rng rng = runtime::StreamRng(workload.seed, k);
    const std::uint64_t base = k * workload.arrival_horizon /
                               std::max<std::uint64_t>(1, workload.requests);
    const std::uint64_t arrival = std::min(base + rng.Uniform(spacing),
                                           workload.arrival_horizon - 1);
    const std::size_t rank = zipf.Sample(rng.UniformDouble());
    // The drift: at flip_slot, yesterday's ranking reverses.
    const std::size_t file =
        arrival < workload.flip_slot ? rank : file_count - 1 - rank;
    requests[k].file = static_cast<broadcast::FileIndex>(file);
    requests[k].start_slot = arrival;
    requests[k].deadline_slots = 0;
    requests[k].model = broadcast::ClientModel::kIda;
  }
  return requests;
}

Result<AdaptiveExperimentResult> RunAdaptiveExperiment(
    const std::vector<broadcast::FlatFileSpec>& files,
    const DriftingZipfWorkload& workload, std::uint64_t interval_slots,
    const faults::ChannelModel& channel, runtime::ThreadPool* pool,
    const broadcast::BroadcastProgram* initial,
    std::uint64_t snapshot_interval_slots,
    const obs::TraceOptions* trace_options,
    const std::function<Status(const obs::Timeline& timeline, bool adaptive)>&
        on_replay_timeline) {
  if (interval_slots == 0) {
    return Status::InvalidArgument(
        "RunAdaptiveExperiment: interval_slots must be positive");
  }
  if (workload.requests == 0) {
    return Status::InvalidArgument(
        "RunAdaptiveExperiment: workload has no requests");
  }

  const std::vector<sim::ClientRequest> requests =
      GenerateDriftingRequests(workload, files.size());

  // The static baseline: the caller's program, or — when none is given —
  // one seeded from *pre-flip* demand, so it is the best program for
  // yesterday's traffic rather than a strawman.
  broadcast::BroadcastProgram baseline;
  if (initial != nullptr) {
    baseline = *initial;
  } else {
    const ZipfDistribution zipf(files.size(), workload.theta);
    BDISK_ASSIGN_OR_RETURN(ProgramOptimizer optimizer,
                           ProgramOptimizer::Create(files));
    BDISK_ASSIGN_OR_RETURN(OptimizedProgram seeded,
                           optimizer.Optimize(zipf.Probabilities(), pool));
    baseline = std::move(seeded.program);
  }

  BDISK_ASSIGN_OR_RETURN(
      AdaptiveController controller,
      AdaptiveController::Create(files, baseline));

  // Walk the controller over the trace, one interval at a time. Decisions
  // consume only arrivals, so the timeline is causal: the program at slot
  // t depends only on requests issued before t's interval.
  const std::uint64_t intervals =
      (workload.arrival_horizon + interval_slots - 1) / interval_slots;
  std::vector<std::vector<std::uint64_t>> interval_counts(
      intervals, std::vector<std::uint64_t>(files.size(), 0));
  for (const sim::ClientRequest& req : requests) {
    const std::uint64_t i =
        std::min<std::uint64_t>(intervals - 1,
                                req.start_slot / interval_slots);
    ++interval_counts[i][req.file];
  }
  std::unique_ptr<obs::TraceSink> static_trace;
  std::unique_ptr<obs::TraceSink> adaptive_trace;
  if (trace_options != nullptr) {
    static_trace = std::make_unique<obs::TraceSink>(*trace_options);
    adaptive_trace = std::make_unique<obs::TraceSink>(*trace_options);
  }
  for (std::uint64_t i = 0; i < intervals; ++i) {
    auto swapped =
        controller.EndInterval(interval_counts[i], (i + 1) * interval_slots,
                               pool);
    if (!swapped.ok()) return swapped.status();
    if (adaptive_trace != nullptr) {
      // One swap-decision span per interval: what the controller decided
      // and, on a swap, where the new epoch takes effect.
      obs::TraceSpan span;
      span.kind = obs::TraceSpanKind::kSwapDecision;
      span.request_id = i;
      span.file_name = "controller";
      span.start_slot = i * interval_slots;
      span.end_slot = (i + 1) * interval_slots;
      span.completed = *swapped;
      span.trigger = obs::kTraceSwap;
      if (*swapped) {
        const auto& epochs = controller.schedule().epochs();
        span.events.push_back(obs::TraceEvent{
            epochs.back().start_slot, obs::TraceEventKind::kEpoch,
            static_cast<std::uint32_t>(epochs.size() - 1), 0});
      }
      adaptive_trace->Record(std::move(span));
    }
  }

  // Replay the identical trace against both timelines over the same fault
  // realization (the channel is a pure trace, so both simulators see the
  // identical realization by construction). The horizon is the arrivals
  // plus 8 data cycles, at most 2^32 - 1 slots: the longest the event
  // engine and the snapshot timeline take.
  constexpr std::uint64_t kMaxHorizon =
      std::numeric_limits<std::uint32_t>::max();
  const std::uint64_t cycle = std::max(
      baseline.DataCycleLength(), controller.schedule().MaxDataCycleLength());
  if (cycle > kMaxHorizon / 8 ||
      workload.arrival_horizon > kMaxHorizon - 8 * cycle) {
    return Status::InvalidArgument(
        "RunAdaptiveExperiment: replay horizon passes 2^32 - 1 slots: " +
        std::to_string(workload.arrival_horizon) +
        " arrival slots plus 8 data cycles of " + std::to_string(cycle) +
        " slots");
  }
  const std::uint64_t horizon = workload.arrival_horizon + 8 * cycle;

  // The replay horizon is only known here, so the snapshot timelines are
  // owned by the result rather than passed in by the caller.
  std::unique_ptr<obs::Timeline> static_timeline;
  std::unique_ptr<obs::Timeline> adaptive_timeline;
  if (snapshot_interval_slots > 0) {
    static_timeline = std::make_unique<obs::Timeline>(
        snapshot_interval_slots, horizon);
    adaptive_timeline = std::make_unique<obs::Timeline>(
        snapshot_interval_slots, horizon);
  }

  sim::Simulator static_sim(baseline, channel, horizon);
  BDISK_ASSIGN_OR_RETURN(sim::SimulationMetrics static_metrics,
                         static_sim.RunRequests(requests, pool,
                                                static_timeline.get(),
                                                static_trace.get()));
  if (on_replay_timeline && static_timeline != nullptr) {
    BDISK_RETURN_NOT_OK(on_replay_timeline(*static_timeline, false));
  }

  sim::Simulator adaptive_sim(controller.schedule(), channel, horizon);
  BDISK_ASSIGN_OR_RETURN(sim::SimulationMetrics adaptive_metrics,
                         adaptive_sim.RunRequests(requests, pool,
                                                  adaptive_timeline.get(),
                                                  adaptive_trace.get()));
  if (on_replay_timeline && adaptive_timeline != nullptr) {
    BDISK_RETURN_NOT_OK(on_replay_timeline(*adaptive_timeline, true));
  }

  return AdaptiveExperimentResult{std::move(static_metrics),
                                  std::move(adaptive_metrics),
                                  controller.swap_count(),
                                  controller.schedule(),
                                  std::move(static_timeline),
                                  std::move(adaptive_timeline),
                                  std::move(static_trace),
                                  std::move(adaptive_trace)};
}

}  // namespace bdisk::adaptive
