// E11 (extension) — real-time transactions over several data items.
//
// The paper's RTDB framing: client transactions read multiple broadcast
// items under one deadline (an IVHS reroute needs incidents + congestion +
// route data together). A transaction misses its deadline if *any* item is
// late, so retrieval-latency tails compound with transaction size — which
// is exactly where AIDA's fault masking pays off. This bench sweeps the
// number of items per transaction at a fixed channel loss rate and reports
// deadline-miss rates for AIDA vs flat programs over the same files.

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
using namespace bdisk::sim;        // NOLINT

constexpr int kFiles = 8;
constexpr std::uint32_t kBlocksPerFile = 6;

BroadcastProgram Build(bool ida) {
  std::vector<FlatFileSpec> files;
  for (int i = 0; i < kFiles; ++i) {
    files.push_back({"F" + std::to_string(i), kBlocksPerFile,
                     ida ? 2 * kBlocksPerFile : kBlocksPerFile, {}});
  }
  auto p = BuildFlatProgram(files, FlatLayout::kSpread);
  if (!p.ok()) std::exit(1);
  return *p;
}

double MissRate(const BroadcastProgram& p, ClientModel model,
                std::size_t txn_size, double loss_rate,
                std::uint64_t deadline, bdisk::runtime::ThreadPool* pool) {
  const faults::BernoulliChannel channel(loss_rate, 777);
  Simulator sim(p, channel, 200000);
  TransactionWorkloadConfig config;
  config.transactions = 3000;
  config.files_per_transaction = txn_size;
  config.deadline_slots = deadline;
  config.model = model;
  config.seed = 4096 + txn_size;
  auto metrics = sim.RunTransactionWorkload(config, pool);
  if (!metrics.ok()) std::exit(1);
  return metrics->MissRate();
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = benchutil::ThreadsFlag(argc, argv);
  std::unique_ptr<bdisk::runtime::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<bdisk::runtime::ThreadPool>(threads);
  }
  const BroadcastProgram ida = Build(true);
  const BroadcastProgram flat = Build(false);
  const std::uint64_t deadline = 3 * ida.period();
  const double loss = 0.08;

  std::printf("E11 / transaction deadline-miss rate vs transaction size\n");
  std::printf("%d files x %u blocks, period %llu, joint deadline %llu "
              "slots, 8%% independent loss, 3000 transactions per point, "
              "%u thread(s)\n\n",
              kFiles, kBlocksPerFile,
              static_cast<unsigned long long>(ida.period()),
              static_cast<unsigned long long>(deadline), threads);
  std::printf("%-12s %-12s %-12s\n", "items/txn", "AIDA miss", "flat miss");
  bool ok = true;
  double prev_flat = -1.0;
  double aida_last = 0.0;  // Miss rate at the largest size (k = 8).
  for (std::size_t k : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const double a =
        MissRate(ida, ClientModel::kIda, k, loss, deadline, pool.get());
    const double f =
        MissRate(flat, ClientModel::kFlat, k, loss, deadline, pool.get());
    std::printf("%-12zu %-12.4f %-12.4f\n", k, a, f);
    ok &= a <= f + 1e-9;       // AIDA never worse.
    ok &= f >= prev_flat - 0.02;  // Flat misses compound with size.
    prev_flat = f;
    aida_last = a;
  }
  benchutil::EmitJson("bench_transactions", "aida_miss_rate_8_items",
                      aida_last, threads);
  benchutil::EmitJson("bench_transactions", "shape_ok", ok ? 1 : 0, threads);
  std::printf("\nshape checks (AIDA <= flat at every size; flat miss rate "
              "non-decreasing in size): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
