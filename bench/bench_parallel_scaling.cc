// E16 — parallel scaling of the two data-plane drivers the runtime layer
// feeds: batched IDA dispersal (DisperseBatch over >= 64 MiB of stripes)
// and the sharded workload simulator (RunWorkload over >= 100k requests).
//
// Reports throughput and speedup at 1/2/4/8 threads (cap with
// --threads N). Correctness is asserted, not sampled: every parallel run
// must be bit-identical to the serial path — that is the runtime layer's
// determinism contract — and the bench exits non-zero on any mismatch.
// Speedup itself is hardware-dependent (a 1-core container shows ~1x) and
// is reported, not asserted.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bdisk/flat_builder.h"
#include "bench_util.h"
#include "common/random.h"
#include "faults/channel_model.h"
#include "ida/dispersal.h"
#include "runtime/flags.h"
#include "runtime/thread_pool.h"
#include "sim/simulation.h"

namespace {

using namespace bdisk;             // NOLINT
using namespace bdisk::broadcast;  // NOLINT
using namespace bdisk::sim;        // NOLINT

constexpr const char* kBench = "bench_parallel_scaling";

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<std::uint8_t> RandomFile(std::size_t size) {
  Rng rng(0xB0D15Cull);
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Uniform(256));
  return data;
}

// Part 1: DisperseBatch over 64 MiB of stripes (m=8, n=16, 4 KiB blocks).
bool ScaleDisperse(const std::vector<unsigned>& thread_counts) {
  const std::uint32_t m = 8;
  const std::size_t block_size = 4096;
  const std::size_t stripe_bytes = m * block_size;           // 32 KiB.
  const std::size_t stripe_count = 2048;                     // 64 MiB total.
  auto engine = ida::Dispersal::Create(m, 2 * m, block_size);
  if (!engine.ok()) return false;
  const auto file = RandomFile(stripe_count * stripe_bytes);

  const auto t0 = std::chrono::steady_clock::now();
  auto serial = engine->DisperseBatch(0, file);
  const double serial_s = Seconds(t0);
  if (!serial.ok()) return false;
  const double mib = static_cast<double>(file.size()) / (1024.0 * 1024.0);

  std::printf("\n--- DisperseBatch, %.0f MiB (%zu stripes of %zu KiB) ---\n",
              mib, stripe_count, stripe_bytes / 1024);
  std::printf("%-9s %-12s %-10s %-10s\n", "threads", "MiB/s", "speedup",
              "identical");
  std::printf("%-9u %-12.1f %-10.2f %-10s\n", 1u, mib / serial_s, 1.0, "ref");
  benchutil::EmitJson(kBench, "disperse_MiBps", mib / serial_s, 1);

  bool identical = true;
  for (unsigned threads : thread_counts) {
    if (threads == 1) continue;
    runtime::ThreadPool pool(threads);
    const auto t1 = std::chrono::steady_clock::now();
    auto parallel = engine->DisperseBatch(0, file, 0, &pool);
    const double parallel_s = Seconds(t1);
    if (!parallel.ok()) return false;
    const bool same = *parallel == *serial;
    identical &= same;
    std::printf("%-9u %-12.1f %-10.2f %-10s\n", threads, mib / parallel_s,
                serial_s / parallel_s, same ? "yes" : "NO");
    benchutil::EmitJson(kBench, "disperse_MiBps", mib / parallel_s, threads);
    benchutil::EmitJson(kBench, "disperse_speedup", serial_s / parallel_s,
                        threads);
  }
  return identical;
}

bool SameMetrics(const SimulationMetrics& a, const SimulationMetrics& b) {
  if (a.per_file.size() != b.per_file.size()) return false;
  for (std::size_t f = 0; f < a.per_file.size(); ++f) {
    const FileMetrics& x = a.per_file[f];
    const FileMetrics& y = b.per_file[f];
    if (x.completed != y.completed || x.incomplete != y.incomplete ||
        x.missed_deadline != y.missed_deadline ||
        x.errors_observed != y.errors_observed ||
        x.latency.sum() != y.latency.sum() ||
        x.latency.variance() != y.latency.variance() ||
        x.latency.min() != y.latency.min() ||
        x.latency.max() != y.latency.max()) {
      return false;
    }
  }
  return true;
}

// Part 2: RunWorkload over >= 100k requests (6 files x 17k, 8% loss).
bool ScaleWorkload(const std::vector<unsigned>& thread_counts) {
  std::vector<FlatFileSpec> files;
  for (int i = 0; i < 6; ++i) {
    files.push_back({"F" + std::to_string(i), 8, 16, {96}});
  }
  auto program = BuildFlatProgram(files, FlatLayout::kSpread);
  if (!program.ok()) return false;
  const faults::BernoulliChannel channel(0.08, 4242);
  Simulator sim(*program, channel, 200000);
  WorkloadConfig config;
  config.requests_per_file = 17000;  // 102k requests total.
  config.seed = 99;
  const double requests =
      static_cast<double>(config.requests_per_file) * 6.0;

  const auto t0 = std::chrono::steady_clock::now();
  auto serial = sim.RunWorkload(config);
  const double serial_s = Seconds(t0);
  if (!serial.ok()) return false;

  std::printf("\n--- RunWorkload, %.0fk requests (8%% loss) ---\n",
              requests / 1000.0);
  std::printf("%-9s %-12s %-10s %-10s\n", "threads", "kreq/s", "speedup",
              "identical");
  std::printf("%-9u %-12.1f %-10.2f %-10s\n", 1u,
              requests / serial_s / 1000.0, 1.0, "ref");
  benchutil::EmitJson(kBench, "workload_kreqps",
                      requests / serial_s / 1000.0, 1);

  bool identical = true;
  for (unsigned threads : thread_counts) {
    if (threads == 1) continue;
    runtime::ThreadPool pool(threads);
    const auto t1 = std::chrono::steady_clock::now();
    auto parallel = sim.RunWorkload(config, &pool);
    const double parallel_s = Seconds(t1);
    if (!parallel.ok()) return false;
    const bool same = SameMetrics(*serial, *parallel);
    identical &= same;
    std::printf("%-9u %-12.1f %-10.2f %-10s\n", threads,
                requests / parallel_s / 1000.0, serial_s / parallel_s,
                same ? "yes" : "NO");
    benchutil::EmitJson(kBench, "workload_kreqps",
                        requests / parallel_s / 1000.0, threads);
    benchutil::EmitJson(kBench, "workload_speedup", serial_s / parallel_s,
                        threads);
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned max_threads =
      runtime::OrExit(runtime::ConsumeThreadsFlagOnce(&argc, argv, 8));
  runtime::OrExit(runtime::ExpectPositionals(argc, argv, 0));
  std::vector<unsigned> thread_counts;
  for (unsigned t = 1; t < max_threads; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(max_threads);  // Include non-power-of-two caps.

  std::printf("E16 / parallel scaling of DisperseBatch and RunWorkload\n");
  std::printf("hardware threads: %u (speedups are hardware-bound; "
              "identical-output checks are not)\n",
              runtime::ThreadPool::HardwareThreads());

  const bool disperse_ok = ScaleDisperse(thread_counts);
  const bool workload_ok = ScaleWorkload(thread_counts);
  const bool ok = disperse_ok && workload_ok;
  if (max_threads < 2) {
    // No parallel run happened; do not print a vacuous verification.
    std::printf("\ncorrectness: skipped (no multi-thread run at "
                "--threads %u)\n",
                max_threads);
  } else {
    std::printf("\ncorrectness (parallel output bit-identical to serial at "
                "every thread count): %s\n",
                ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}
