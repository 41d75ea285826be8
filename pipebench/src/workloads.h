// The benchmark's three workloads. Each takes its seed from Options, gives
// the library only generated inputs (spec text, contents, session and
// arrival lists), checks every output, and fills a Report with the
// end-to-end metrics (Options::trace == false) or the per-layer metrics
// of a traced run (Options::trace == true).

#ifndef PIPEBENCH_WORKLOADS_H_
#define PIPEBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "harness.h"

namespace pipebench {

/// Outputs of a run that depend only on the seed: the determinism tests
/// compare two runs of one seed (must be equal) and of two seeds (must
/// differ).
struct Deterministic {
  /// Per-retrieval latency in slots, in retrieval order.
  std::vector<std::uint64_t> delays;
  /// Per-retrieval data age in slots, in retrieval order.
  std::vector<std::uint64_t> ages;
  /// Transmission events (fleet), block datagrams (wire), or served
  /// blocks (update churn) of one round.
  std::uint64_t ops = 0;
  /// Datagrams the listener received in one round (wire only).
  std::uint64_t datagrams = 0;
  /// Store commits in one round (update churn) or at set-up (wire).
  std::uint64_t commits = 0;

  bool operator==(const Deterministic&) const = default;
};

Report RunWire(const Options& options, Deterministic* out);
Report RunChurn(const Options& options, Deterministic* out);
Report RunFleet(const Options& options, Deterministic* out);

/// Every per-layer metric name with its unit, in report order. A traced
/// run prints all of them; layers a workload does not exercise read 0.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics();

/// Fills in the per-layer metrics `report` lacks with 0 and orders them
/// as PerLayerMetrics() does. A metric that is not in PerLayerMetrics()
/// or appears twice fails the report.
void CompletePerLayer(Report* report);

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOADS_H_
