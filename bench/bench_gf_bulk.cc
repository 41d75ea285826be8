// GF(2^8) data-plane kernel: every implementation the host supports
// (google-benchmark).
//
// The IDA inner loop is dst[k] ^= coeff * src[k] over a whole block column.
// BM_PerByteLogExpAccumulate is the baseline: two log-table lookups and an
// exp lookup per byte (GF256::Mul). The kernel implementations run it as a
// matrix product: the generic one pays one lookup into a precomputed
// 256-entry product row plus one XOR per byte, the SIMD ones (SSSE3, AVX2,
// NEON nibble shuffles; GFNI's VGF2P8MULB) 16-64 bytes per instruction
// group.
//
// The fused-vs-unfused pair runs each implementation's
// matrix_mul_accumulate on the dispersal geometry of the acceptance bar
// (n=8 outputs, m=5 inputs, 64 KiB blocks): BM_MatrixMulAccumulateFused<impl>
// as one call, BM_MatrixMulAccumulateUnfused<impl> as n * m 1 x 1 calls,
// one per (output, input) pair.
//
// The other per-block data-plane kernel is the CRC-32C every stamp and
// verify runs, over the stamped span of a 1 KiB and a 32 KiB block —
// payload plus the 24 identity bytes: one BM_Crc32c<name> per kernel the
// host can run (internal::Crc32cKernels(), portable first), and BM_Crc32c,
// Crc32cExtend itself, labelled with the kernel it selects.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_gbench.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "gf/gf256.h"
#include "gf/gf_dispatch.h"
#include "gf/gf_kernels.h"
#include "gf/matrix.h"

namespace {

using bdisk::Rng;
using bdisk::gf::Dispatch;
using bdisk::gf::GF256;
using bdisk::gf::Matrix;
using bdisk::gf::internal::KernelTable;

std::vector<std::uint8_t> RandomBytes(std::size_t n) {
  Rng rng(n * 0x9E3779B97F4A7C15ULL + 3);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Uniform(256));
  return out;
}

constexpr std::uint8_t kCoeff = 0x8E;  // A generic non-trivial coefficient.

// Baseline: the seed's per-byte log/exp multiply-accumulate loop, from
// L1-resident to streaming block sizes.
void BM_PerByteLogExpAccumulate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto src = RandomBytes(n);
  std::vector<std::uint8_t> dst(n, 0);
  for (auto _ : state) {
    for (std::size_t k = 0; k < n; ++k) {
      dst[k] ^= GF256::Mul(kCoeff, src[k]);
    }
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PerByteLogExpAccumulate)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(1 << 20);

// Stamped spans of a 1 KiB and a 32 KiB block: payload + identity bytes.
constexpr std::int64_t kStampedSpans[] = {1024 + 24, 32768 + 24};

using CrcExtend = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

void RunCrc32c(benchmark::State& state, CrcExtend extend) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto data = RandomBytes(n);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = extend(crc, data.data(), n);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_Crc32c(benchmark::State& state) {
  RunCrc32c(state, bdisk::Crc32cExtend);
  state.SetLabel(bdisk::internal::Crc32cKernels().back().name);
}
BENCHMARK(BM_Crc32c)->Arg(kStampedSpans[0])->Arg(kStampedSpans[1]);

// The acceptance-bar dispersal geometry: 8 output blocks over 5 inputs,
// 64 KiB each, SystematicCauchy coefficients (3 identity-heavy rows would
// understate the work, so all rows participate: 5 identity + 3 Cauchy).
struct MatrixBenchData {
  static constexpr std::size_t kNDst = 8;
  static constexpr std::size_t kNSrc = 5;
  static constexpr std::size_t kBlock = 64 * 1024;

  MatrixBenchData()
      : matrix(*Matrix::SystematicCauchy(kNDst, kNSrc)),
        src_bytes(RandomBytes(kNSrc * kBlock)),
        dst_bytes(kNDst * kBlock, 0) {
    for (std::size_t j = 0; j < kNSrc; ++j) {
      srcs.push_back(src_bytes.data() + j * kBlock);
    }
    for (std::size_t i = 0; i < kNDst; ++i) {
      dsts.push_back(dst_bytes.data() + i * kBlock);
      coeffs.push_back(matrix.RowData(i));
    }
  }

  Matrix matrix;
  std::vector<std::uint8_t> src_bytes;
  std::vector<std::uint8_t> dst_bytes;
  std::vector<const std::uint8_t*> srcs;
  std::vector<std::uint8_t*> dsts;
  std::vector<const std::uint8_t*> coeffs;
};

std::int64_t MatrixBytesPerIteration() {
  // Useful traffic: each source read once, each destination written once.
  return static_cast<std::int64_t>(
      (MatrixBenchData::kNDst + MatrixBenchData::kNSrc) *
      MatrixBenchData::kBlock);
}

void RunMatrixFused(benchmark::State& state, const KernelTable* k) {
  MatrixBenchData d;
  for (auto _ : state) {
    k->matrix_mul_accumulate(d.dsts.data(), d.srcs.data(), d.coeffs.data(),
                             MatrixBenchData::kNDst, MatrixBenchData::kNSrc,
                             MatrixBenchData::kBlock);
    benchmark::DoNotOptimize(d.dst_bytes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          MatrixBytesPerIteration());
}

void RunMatrixUnfused(benchmark::State& state, const KernelTable* k) {
  MatrixBenchData d;
  for (auto _ : state) {
    for (std::size_t i = 0; i < MatrixBenchData::kNDst; ++i) {
      for (std::size_t j = 0; j < MatrixBenchData::kNSrc; ++j) {
        const std::uint8_t* const coeff = d.coeffs[i] + j;
        k->matrix_mul_accumulate(&d.dsts[i], &d.srcs[j], &coeff, 1, 1,
                                 MatrixBenchData::kBlock);
      }
    }
    benchmark::DoNotOptimize(d.dst_bytes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          MatrixBytesPerIteration());
}

void RegisterPerImplementationBenchmarks() {
  for (const bdisk::internal::Crc32cKernel& k :
       bdisk::internal::Crc32cKernels()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Crc32c<") + k.name + ">").c_str(),
        [extend = k.extend](benchmark::State& state) {
          RunCrc32c(state, extend);
        })
        ->Arg(kStampedSpans[0])
        ->Arg(kStampedSpans[1]);
  }
  for (const KernelTable* k : Dispatch::Supported()) {
    const std::string tag = std::string("<") + k->name + ">";
    benchmark::RegisterBenchmark(
        ("BM_MatrixMulAccumulateFused" + tag).c_str(),
        [k](benchmark::State& state) { RunMatrixFused(state, k); });
    benchmark::RegisterBenchmark(
        ("BM_MatrixMulAccumulateUnfused" + tag).c_str(),
        [k](benchmark::State& state) { RunMatrixUnfused(state, k); });
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterPerImplementationBenchmarks();
  return benchutil::RunGoogleBenchmarks(argc, argv, "bench_gf_bulk");
}
