// E14 (extension) — absolute temporal consistency (the paper's AWACS
// motivation): completion rate, data age, and restart cost as the update
// interval sweeps from generous to starvation.
//
// A file's snapshot changes every U slots; IDA blocks of different
// snapshots cannot be combined, so clients straddling an update restart.
// The feasibility cliff sits where U falls below the worst-case retrieval
// time — exactly the paper's point that the broadcast program must
// *guarantee* retrieval within the temporal-consistency bound, not merely
// achieve it on average.

#include <cstdio>

#include "bdisk/delay_analysis.h"
#include "bdisk/flat_builder.h"
#include "bench_util.h"
#include "common/stats.h"
#include "faults/channel_model.h"
#include "sim/versioned.h"

namespace {

using namespace bdisk;             // NOLINT
using namespace bdisk::broadcast;  // NOLINT
using namespace bdisk::sim;        // NOLINT

}  // namespace

int main() {
  std::vector<FlatFileSpec> files{
      {"track", 4, 8, {}},   // The updated item under study.
      {"other", 8, 10, {}},  // Background load.
  };
  auto program = BuildFlatProgram(files, FlatLayout::kSpread);
  if (!program.ok()) return 1;

  DelayAnalyzer analyzer(*program);
  auto worst = analyzer.WorstCaseLatency(0, 0, ClientModel::kIda);
  if (!worst.ok()) return 1;

  std::printf("E14 / temporal consistency: update interval sweep\n");
  std::printf("file 'track': 4 blocks (dispersed to 8), period %llu, "
              "fault-free worst-case retrieval %llu slots\n\n",
              static_cast<unsigned long long>(program->period()),
              static_cast<unsigned long long>(*worst));
  std::printf("%-10s %-12s %-10s %-12s %-10s\n", "interval",
              "completed", "restarts", "mean age", "max age");

  bool ok = true;
  for (std::uint64_t interval : {0ull, 96ull, 48ull, 24ull, 12ull, 6ull}) {
    VersionedServerOptions options;
    options.block_size = 32;
    options.update_interval_slots = {interval, 0};
    auto server = VersionedBroadcastServer::Create(*program, options);
    if (!server.ok()) return 1;

    const faults::LosslessChannel channel;
    RunningStats age;
    std::uint64_t restarts = 0;
    int completed = 0;
    const int kTrials = 200;
    for (int t = 0; t < kTrials; ++t) {
      const std::uint64_t start =
          (static_cast<std::uint64_t>(t) * 37) % (4 * program->period());
      auto session =
          RunVersionedRetrieval(*server, channel, 0, start, 20000);
      if (!session.ok()) return 1;
      if (session->completed) {
        ++completed;
        age.Add(static_cast<double>(session->data_age));
        restarts += session->restarts;
      }
    }
    std::printf("%-10llu %3d/%-8d %-10llu %-12.1f %-10.0f\n",
                static_cast<unsigned long long>(interval), completed,
                kTrials, static_cast<unsigned long long>(restarts),
                age.mean(), age.count() ? age.max() : 0.0);
    // Shape: intervals at or above the worst-case retrieval time always
    // complete; intervals below the error-free collection time starve.
    if (interval == 0 || interval >= *worst) ok &= completed == kTrials;
    if (interval > 0 && interval < 8) ok &= completed == 0;
  }
  std::printf("\nreading: interval 0 = static file. Once the interval "
              "drops below the retrieval time, clients restart forever — "
              "the temporal-consistency feasibility constraint the "
              "paper's deadline guarantees protect against.\n");
  benchutil::EmitJson("bench_temporal", "shape_ok", ok ? 1 : 0, 1);
  std::printf("\nshape checks (always complete when interval >= worst-case "
              "retrieval; starve when below collection time): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
