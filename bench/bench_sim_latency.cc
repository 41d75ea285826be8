// E8 — Stochastic extension of Figure 7: simulated retrieval latency and
// deadline-miss rate versus channel error rate, AIDA versus flat, under
// independent (Bernoulli, the paper's channel model) and bursty
// (Gilbert-Elliott) losses.

#include <cstdio>
#include <memory>
#include <vector>

#include "bdisk/flat_builder.h"
#include "bench_util.h"
#include "faults/channel_model.h"
#include "runtime/thread_pool.h"
#include "sim/simulation.h"

namespace {

using namespace bdisk;             // NOLINT
using namespace bdisk::broadcast;  // NOLINT
using namespace bdisk::sim;       // NOLINT

BroadcastProgram Build(bool ida) {
  // 6 files x 8 blocks, spread layout, 16-slot deadline headroom over the
  // 48-slot period... deadline = 2 periods.
  std::vector<FlatFileSpec> files;
  for (int i = 0; i < 6; ++i) {
    files.push_back({"F" + std::to_string(i), 8, ida ? 16u : 8u, {96}});
  }
  auto p = BuildFlatProgram(files, FlatLayout::kSpread);
  if (!p.ok()) std::exit(1);
  return *p;
}

struct Row {
  double mean_latency = 0.0;
  double max_latency = 0.0;
  double miss_rate = 0.0;
};

bdisk::runtime::ThreadPool* g_pool = nullptr;

Row Run(const BroadcastProgram& p, const faults::ChannelModel& channel,
        ClientModel model) {
  Simulator sim(p, channel, 200000);
  WorkloadConfig config;
  config.requests_per_file = 2000;
  config.model = model;
  config.seed = 99;
  auto metrics = sim.RunWorkload(config, g_pool);
  if (!metrics.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 metrics.status().ToString().c_str());
    std::exit(1);
  }
  return Row{metrics->OverallMeanLatency(), metrics->OverallMaxLatency(),
             metrics->OverallMissRate()};
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = benchutil::ThreadsFlag(argc, argv);
  std::unique_ptr<bdisk::runtime::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<bdisk::runtime::ThreadPool>(threads);
    g_pool = pool.get();
  }
  const BroadcastProgram ida = Build(true);
  const BroadcastProgram flat = Build(false);
  std::printf("E8 / simulated latency and miss rate vs channel error rate\n");
  std::printf("6 files x 8 blocks, period %llu, deadline 96 slots, "
              "12000 retrievals per point, %u thread(s)\n\n",
              static_cast<unsigned long long>(ida.period()), threads);

  std::printf("--- independent losses (Bernoulli; the paper's channel "
              "model) ---\n");
  std::printf("%-8s %-28s %-28s\n", "p_loss", "AIDA mean/max/miss",
              "flat mean/max/miss");
  bool ok = true;
  Row last_aida;
  for (double p_loss : {0.0, 0.01, 0.05, 0.1, 0.2, 0.4}) {
    const faults::BernoulliChannel channel(p_loss, 4242);
    const Row a = Run(ida, channel, ClientModel::kIda);
    const Row b = Run(flat, channel, ClientModel::kFlat);
    std::printf("%-8.2f %8.1f / %6.0f / %-7.4f %8.1f / %6.0f / %-7.4f\n",
                p_loss, a.mean_latency, a.max_latency, a.miss_rate,
                b.mean_latency, b.max_latency, b.miss_rate);
    // Shape: AIDA never loses on mean latency or miss rate.
    if (p_loss > 0.0) {
      ok &= a.mean_latency <= b.mean_latency + 1e-9;
      ok &= a.miss_rate <= b.miss_rate + 1e-9;
    }
    last_aida = a;
  }
  benchutil::EmitJson("bench_sim_latency", "aida_mean_latency_40pct_loss",
                      last_aida.mean_latency, threads);
  benchutil::EmitJson("bench_sim_latency", "aida_miss_rate_40pct_loss",
                      last_aida.miss_rate, threads);

  std::printf("\n--- bursty losses (Gilbert-Elliott, mean burst 5 slots) "
              "---\n");
  std::printf("%-8s %-28s %-28s\n", "p_loss", "AIDA mean/max/miss",
              "flat mean/max/miss");
  for (double p_loss : {0.01, 0.05, 0.1, 0.2}) {
    faults::GilbertElliottChannel::Params params;
    params.p_bad_to_good = 0.2;  // Mean burst length 5.
    // Choose p_good_to_bad for the target stationary rate:
    // rate = gb / (gb + bg) => gb = rate * bg / (1 - rate).
    params.p_good_to_bad = p_loss * params.p_bad_to_good / (1.0 - p_loss);
    const faults::GilbertElliottChannel channel(params, 4242);
    const Row a = Run(ida, channel, ClientModel::kIda);
    const Row b = Run(flat, channel, ClientModel::kFlat);
    std::printf("%-8.2f %8.1f / %6.0f / %-7.4f %8.1f / %6.0f / %-7.4f\n",
                p_loss, a.mean_latency, a.max_latency, a.miss_rate,
                b.mean_latency, b.max_latency, b.miss_rate);
    ok &= a.mean_latency <= b.mean_latency + 1e-9;
  }

  benchutil::EmitJson("bench_sim_latency", "shape_ok", ok ? 1 : 0, threads);
  std::printf("\nshape checks (AIDA <= flat on mean latency and miss "
              "rate at every error rate): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
