/// \file trace_walk.h
/// \brief The single span walker behind per-request causal tracing.
///
/// A retrieval is a pure function of (schedule, fault trace, request), so
/// its causal chain can be reconstructed *after* the outcome is known —
/// which is what makes anomaly-triggered tracing free on the hot path
/// (obs/trace.h). Both engines call this one walker; they differ only in
/// how the next transmission of the traced file is found (the slot engine
/// scans, the event engine steps a lane cursor), and the walker consumes
/// that through a callback — so the emitted event chain, and therefore the
/// rendered trace, is byte-identical across engines by construction. The
/// walker cross-checks its replayed completion against the engine-computed
/// outcome, making any engine/walker drift a hard failure.

#ifndef BDISK_SIM_TRACE_WALK_H_
#define BDISK_SIM_TRACE_WALK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "faults/channel_model.h"
#include "obs/trace.h"

namespace bdisk::sim {

struct RetrievalOutcome;

/// \brief Engine-agnostic inputs of BuildRetrievalSpan for one file.
struct TraceWalkContext {
  /// Next transmission of the traced file at slot >= the argument:
  /// (absolute slot, rotated block index), or nullopt when none remains
  /// before the horizon.
  std::function<std::optional<std::pair<std::uint64_t, std::uint32_t>>(
      std::uint64_t)> next_tx;
  /// The realized fault trace (one effect per slot; size == horizon).
  const std::vector<faults::FaultType>* faults = nullptr;
  /// Start slots of epochs 1, 2, ... (ascending); empty without hot swaps.
  std::vector<std::uint64_t> epoch_starts;
  /// The traced file's dispersal geometry.
  std::uint32_t m = 0;
  std::uint32_t n = 0;
  std::uint64_t horizon = 0;
};

/// \brief Replays one retrieval's causal chain and packages it as a span.
/// `outcome` is the engine-computed result; the walker checks that its
/// replay reaches the same completion slot. `trigger` must be nonzero.
obs::TraceSpan BuildRetrievalSpan(const TraceWalkContext& ctx,
                                  std::uint64_t request_id,
                                  std::uint32_t file,
                                  const std::string& file_name,
                                  std::uint64_t start_slot,
                                  std::uint64_t deadline_slots,
                                  const RetrievalOutcome& outcome,
                                  std::uint8_t trigger);

}  // namespace bdisk::sim

#endif  // BDISK_SIM_TRACE_WALK_H_
