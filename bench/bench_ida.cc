// E7 — IDA dispersal / reconstruction cost (google-benchmark).
//
// The paper's Section 5 notes the dispersal/reconstruction operation is
// O(m^2) for a trivial IDA implementation (and its SETH VLSI chip ran at
// ~1 MB/s in 1990 hardware). These timings characterize our software
// GF(2^8) implementation: throughput versus the dispersal level m at fixed
// file size, and versus block size at fixed m.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_gbench.h"
#include "common/random.h"
#include "gf/gf_dispatch.h"
#include "ida/dispersal.h"

namespace {

using bdisk::Rng;
using bdisk::ida::Block;
using bdisk::ida::Dispersal;

std::vector<std::uint8_t> RandomFile(std::size_t size) {
  Rng rng(size * 2654435761ULL + 1);
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Uniform(256));
  return data;
}

// Disperse a fixed 64 KiB file at varying dispersal level m (n = 2m).
void BM_DisperseVsM(benchmark::State& state) {
  const std::uint32_t m = static_cast<std::uint32_t>(state.range(0));
  const std::size_t file_size = 64 * 1024;
  const std::size_t block_size = file_size / m;
  auto engine = Dispersal::Create(m, 2 * m, block_size);
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  const auto file = RandomFile(m * block_size);
  for (auto _ : state) {
    auto blocks = engine->Disperse(0, file);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file.size()));
  state.counters["m"] = m;
}
BENCHMARK(BM_DisperseVsM)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Reconstruct from the parity blocks (worst case: no systematic shortcut).
void BM_ReconstructVsM(benchmark::State& state) {
  const std::uint32_t m = static_cast<std::uint32_t>(state.range(0));
  const std::size_t file_size = 64 * 1024;
  const std::size_t block_size = file_size / m;
  auto engine = Dispersal::Create(m, 2 * m, block_size);
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  const auto file = RandomFile(m * block_size);
  auto blocks = engine->Disperse(0, file);
  if (!blocks.ok()) {
    state.SkipWithError("dispersal failed");
    return;
  }
  // Use the last m blocks (all parity).
  std::vector<Block> parity(blocks->begin() + m, blocks->end());
  for (auto _ : state) {
    auto rec = engine->Reconstruct(parity);
    benchmark::DoNotOptimize(rec);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file.size()));
  state.counters["m"] = m;
}
BENCHMARK(BM_ReconstructVsM)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// m = 8, n = 10 at 32 KiB, with k erased data rows: k = 0 copies the
// systematic rows and solves nothing; each erased row adds its row of the
// inverse times the m received blocks.
void BM_ReconstructErasures(benchmark::State& state) {
  const std::uint32_t m = 8;
  const std::uint32_t erased = static_cast<std::uint32_t>(state.range(0));
  const std::size_t block_size = 32 * 1024;
  auto engine = Dispersal::Create(m, 10, block_size);
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  const auto file = RandomFile(m * block_size);
  auto blocks = engine->Disperse(0, file);
  if (!blocks.ok()) {
    state.SkipWithError("dispersal failed");
    return;
  }
  // Data rows erased..m-1, then parity rows m..m+erased-1.
  std::vector<Block> received(blocks->begin() + erased,
                              blocks->begin() + m + erased);
  for (auto _ : state) {
    auto rec = engine->Reconstruct(received);
    benchmark::DoNotOptimize(rec);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file.size()));
  state.counters["erased"] = erased;
}
BENCHMARK(BM_ReconstructErasures)->Arg(0)->Arg(1)->Arg(2);

// Fixed m = 8, varying block size: the cost per byte is flat (the O(m^2)
// matrix work amortizes over the block).
void BM_DisperseVsBlockSize(benchmark::State& state) {
  const std::size_t block_size = static_cast<std::size_t>(state.range(0));
  const std::uint32_t m = 8;
  auto engine = Dispersal::Create(m, 16, block_size);
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  const auto file = RandomFile(m * block_size);
  for (auto _ : state) {
    auto blocks = engine->Disperse(0, file);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file.size()));
  state.counters["block_bytes"] = static_cast<double>(block_size);
}
BENCHMARK(BM_DisperseVsBlockSize)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);

// First-time reconstruction pays a Gauss-Jordan inversion; repeated
// subsets hit the inverse cache. Measure the cached path separately from
// the cold path.
void BM_ReconstructCachedInverse(benchmark::State& state) {
  const std::uint32_t m = 16;
  auto engine = Dispersal::Create(m, 32, 1024);
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  const auto file = RandomFile(m * 1024);
  auto blocks = engine->Disperse(0, file);
  std::vector<Block> subset(blocks->begin() + 8, blocks->begin() + 8 + m);
  // Warm the cache.
  benchmark::DoNotOptimize(engine->Reconstruct(subset));
  for (auto _ : state) {
    auto rec = engine->Reconstruct(subset);
    benchmark::DoNotOptimize(rec);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file.size()));
}
BENCHMARK(BM_ReconstructCachedInverse);

void BM_GaussJordanInversion(benchmark::State& state) {
  const std::uint32_t m = static_cast<std::uint32_t>(state.range(0));
  auto engine = Dispersal::Create(m, 2 * m, 16);
  const auto file = RandomFile(m * 16);
  auto blocks = engine->Disperse(0, file);
  std::vector<Block> parity(blocks->begin() + m, blocks->end());
  for (auto _ : state) {
    // Fresh engine each round so the inverse is recomputed (cold path).
    auto cold = Dispersal::Create(m, 2 * m, 16);
    auto rec = cold->Reconstruct(parity);
    benchmark::DoNotOptimize(rec);
  }
  state.counters["m"] = m;
}
BENCHMARK(BM_GaussJordanInversion)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  // The codec follows gf::Dispatch (BDISK_GF_IMPL overrides the CPU probe),
  // so tag every metric with the implementation that actually ran — one
  // trajectory file can then hold scalar and SIMD datapoints side by side.
  const std::string prefix =
      std::string(bdisk::gf::Dispatch::ActiveName()) + ":";
  return benchutil::RunGoogleBenchmarks(argc, argv, "bench_ida", prefix);
}
