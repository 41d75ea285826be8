// Exhaustive conformance tests for every GF(2^8) kernel implementation the
// host supports, against the GF256::MulSlow oracle.
//
// Every implementation (generic table kernel, SSSE3, AVX2, GFNI, NEON —
// whatever gf::Dispatch::Supported() reports) runs its one entry point,
// matrix_mul_accumulate, as a single-source product that must be
// byte-identical to the scalar oracle for all 256 coefficients, at lengths
// that straddle every vector width and tail path, and at every src/dst
// misalignment in [0, 16). The oracle is materialized once as a 256x256
// table whose every entry is asserted equal to GF256::MulSlow, then applied
// via lookups (building multi-KiB expected buffers through the bitwise
// MulSlow loop itself would dominate the test's runtime without adding
// coverage).
//
// A second suite checks multi-row, multi-source products against an
// unfused per-(dst, src) oracle byte loop on random matrices, and that
// every implementation reproduces ida::Dispersal's wire bytes exactly.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "gf/gf256.h"
#include "gf/gf_bulk.h"
#include "gf/gf_dispatch.h"
#include "gf/gf_kernels.h"
#include "gf/matrix.h"
#include "ida/dispersal.h"

namespace bdisk::gf {
namespace {

using internal::KernelTable;

// Lengths straddling the 8/16/32/64-byte inner loops and their tails, plus
// two multi-tile sizes (4096 is exactly one matrix tile, 4097 spills).
constexpr std::size_t kLengths[] = {0, 1, 15, 16, 17, 31, 32, 33, 4096, 4097};
constexpr std::size_t kMaxLength = 4097;
constexpr std::size_t kMaxOffset = 16;  // Misalignments 0..15.
constexpr std::size_t kCanary = 64;     // Guard bytes checked around dst.

const std::array<std::array<std::uint8_t, 256>, 256>& OracleTable() {
  static const auto kOracle = [] {
    std::array<std::array<std::uint8_t, 256>, 256> t{};
    for (unsigned c = 0; c < 256; ++c) {
      for (unsigned x = 0; x < 256; ++x) {
        t[c][x] = GF256::MulSlow(static_cast<std::uint8_t>(c),
                                 static_cast<std::uint8_t>(x));
      }
    }
    return t;
  }();
  return kOracle;
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Uniform(256));
  return out;
}

TEST(GfSimdTest, OracleTableMatchesMulSlow) {
  const auto& oracle = OracleTable();
  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned x = 0; x < 256; ++x) {
      ASSERT_EQ(oracle[c][x],
                GF256::MulSlow(static_cast<std::uint8_t>(c),
                               static_cast<std::uint8_t>(x)))
          << "c=" << c << " x=" << x;
    }
  }
}

TEST(GfSimdTest, DispatchReportsConsistentImplementations) {
  const auto& supported = Dispatch::Supported();
  ASSERT_FALSE(supported.empty());
  EXPECT_STREQ(supported.front()->name, "generic");
  for (const KernelTable* k : supported) {
    EXPECT_EQ(Dispatch::ByName(k->name), k);
  }
  EXPECT_EQ(Dispatch::ByName("no-such-impl"), nullptr);
  // The active implementation is always one of the supported set.
  bool active_supported = false;
  for (const KernelTable* k : supported) {
    if (k == &Dispatch::Active()) active_supported = true;
  }
  EXPECT_TRUE(active_supported) << Dispatch::ActiveName();
}

// Shared buffers for the conformance sweep. `src` and `dst` carry extra
// room so the kernel can be invoked at every misalignment; `base` is the
// logical (offset-independent) initial dst content.
struct Sweep {
  std::vector<std::uint8_t> src = RandomBytes(kMaxOffset + kMaxLength, 101);
  std::vector<std::uint8_t> base = RandomBytes(kMaxLength, 202);
  std::vector<std::uint8_t> dst =
      std::vector<std::uint8_t>(kMaxOffset + kMaxLength + kCanary, 0);
  // Expected bytes base ^ coeff * src for the current (coeff, src_off).
  std::vector<std::uint8_t> exp = std::vector<std::uint8_t>(kMaxLength, 0);
};

// Runs one (impl, coeff, len, src_off, dst_off) single-source product —
// one destination, one source, a 1 x 1 coefficient matrix — and checks the
// output bytes plus the canary region around the destination window.
// Returns false (after recording a gtest failure) on the first mismatch so
// the sweep can bail out instead of printing millions of errors.
bool CheckCall(Sweep* s, const KernelTable& k, unsigned coeff,
               std::size_t len, std::size_t src_off, std::size_t dst_off) {
  std::uint8_t* dst = s->dst.data() + dst_off;
  std::memset(s->dst.data(), 0x5C, s->dst.size());
  if (len > 0) std::memcpy(dst, s->base.data(), len);
  const std::uint8_t* src = s->src.data() + src_off;
  const auto c = static_cast<std::uint8_t>(coeff);
  const std::uint8_t* row = &c;
  k.matrix_mul_accumulate(&dst, &src, &row, 1, 1, len);
  const bool body_ok = len == 0 || std::memcmp(dst, s->exp.data(), len) == 0;
  bool canary_ok = true;
  for (std::size_t i = 0; i < dst_off && canary_ok; ++i) {
    canary_ok = s->dst[i] == 0x5C;
  }
  for (std::size_t i = dst_off + len; i < dst_off + len + kCanary && canary_ok;
       ++i) {
    canary_ok = s->dst[i] == 0x5C;
  }
  EXPECT_TRUE(body_ok && canary_ok)
      << "impl=" << k.name << " coeff=" << coeff << " len=" << len
      << " src_off=" << src_off << " dst_off=" << dst_off
      << (body_ok ? " (out-of-bounds write hit the canary)"
                  : " (output bytes differ from the MulSlow oracle)");
  return body_ok && canary_ok;
}

// The exhaustive sweep: every supported implementation x all 256
// coefficients x kLengths x src offsets 0-15 x dst offsets 0-15. Coefficient
// 0 leaves dst as is and coefficient 1 is a plain XOR, so the sweep covers
// both fast paths at every misalignment too.
TEST(GfSimdTest, MulKernelsMatchOracleExhaustively) {
  const auto& oracle = OracleTable();
  Sweep s;
  for (const KernelTable* k : Dispatch::Supported()) {
    for (unsigned coeff = 0; coeff < 256; ++coeff) {
      const auto& row = oracle[coeff];
      for (std::size_t src_off = 0; src_off < kMaxOffset; ++src_off) {
        for (std::size_t i = 0; i < kMaxLength; ++i) {
          s.exp[i] = static_cast<std::uint8_t>(s.base[i] ^
                                               row[s.src[src_off + i]]);
        }
        for (std::size_t len : kLengths) {
          for (std::size_t dst_off = 0; dst_off < kMaxOffset; ++dst_off) {
            if (!CheckCall(&s, *k, coeff, len, src_off, dst_off)) return;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused matrix kernel.
// ---------------------------------------------------------------------------

// Unfused reference: n_dst * n_src independent byte loops through the
// MulSlow-verified oracle table.
void UnfusedReference(std::uint8_t* const* dsts, const std::uint8_t* const* srcs,
                      const std::uint8_t* const* coeffs, std::size_t n_dst,
                      std::size_t n_src, std::size_t block_size) {
  const auto& oracle = OracleTable();
  for (std::size_t i = 0; i < n_dst; ++i) {
    for (std::size_t j = 0; j < n_src; ++j) {
      const auto& row = oracle[coeffs[i][j]];
      for (std::size_t k = 0; k < block_size; ++k) {
        dsts[i][k] ^= row[srcs[j][k]];
      }
    }
  }
}

TEST(GfSimdTest, MatrixMulAccumulateMatchesUnfusedLoop) {
  Rng rng(4242);
  // Shapes cover single-row, tall, wide, and square cases; block sizes
  // cover sub-vector, tail-heavy, one-tile, and multi-tile ranges.
  const struct {
    std::size_t n_dst, n_src;
  } kShapes[] = {{1, 1}, {2, 3}, {8, 5}, {12, 12}};
  const std::size_t kBlockSizes[] = {0, 1, 16, 100, 1000, 4096, 4097, 16384};
  for (const auto& shape : kShapes) {
    for (std::size_t block : kBlockSizes) {
      // Random coefficients with 0 and 1 forced common (systematic dispersal
      // matrices are mostly identity rows, and both values take fast paths).
      std::vector<std::vector<std::uint8_t>> coeff_rows(shape.n_dst);
      std::vector<const std::uint8_t*> coeffs(shape.n_dst);
      for (std::size_t i = 0; i < shape.n_dst; ++i) {
        coeff_rows[i].resize(shape.n_src);
        for (auto& c : coeff_rows[i]) {
          const std::uint64_t pick = rng.Uniform(4);
          c = pick == 0 ? 0
              : pick == 1 ? 1
                          : static_cast<std::uint8_t>(rng.Uniform(256));
        }
        coeffs[i] = coeff_rows[i].data();
      }
      std::vector<std::vector<std::uint8_t>> src_blocks(shape.n_src);
      std::vector<const std::uint8_t*> srcs(shape.n_src);
      for (std::size_t j = 0; j < shape.n_src; ++j) {
        src_blocks[j] = RandomBytes(block, 1000 + 7 * j + block);
        srcs[j] = src_blocks[j].data();
      }
      const auto initial = RandomBytes(shape.n_dst * block, 9999 + block);

      std::vector<std::uint8_t> expected = initial;
      {
        std::vector<std::uint8_t*> dsts(shape.n_dst);
        for (std::size_t i = 0; i < shape.n_dst; ++i) {
          dsts[i] = expected.data() + i * block;
        }
        UnfusedReference(dsts.data(), srcs.data(), coeffs.data(), shape.n_dst,
                         shape.n_src, block);
      }

      for (const KernelTable* k : Dispatch::Supported()) {
        std::vector<std::uint8_t> actual = initial;
        std::vector<std::uint8_t*> dsts(shape.n_dst);
        for (std::size_t i = 0; i < shape.n_dst; ++i) {
          dsts[i] = actual.data() + i * block;
        }
        k->matrix_mul_accumulate(dsts.data(), srcs.data(), coeffs.data(),
                                 shape.n_dst, shape.n_src, block);
        ASSERT_EQ(actual, expected)
            << "impl=" << k->name << " n_dst=" << shape.n_dst
            << " n_src=" << shape.n_src << " block=" << block;
      }
    }
  }
}

// Every implementation must reproduce the engine's dispersal bytes exactly:
// run Dispersal::Disperse (which uses the active implementation), then
// recompute each payload with every supported implementation's fused kernel
// and compare. Combined with the CI matrix that reruns the whole suite per
// BDISK_GF_IMPL, this pins the wire format across implementations.
TEST(GfSimdTest, AllImplementationsProduceIdenticalDispersalBytes) {
  constexpr std::uint32_t kM = 5;
  constexpr std::uint32_t kN = 8;
  constexpr std::size_t kBlock = 4097;  // Odd: exercises every tail path.
  auto engine = ida::Dispersal::Create(kM, kN, kBlock);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  const auto file = RandomBytes(kM * kBlock, 31337);
  auto blocks = engine->Disperse(77, file);
  ASSERT_TRUE(blocks.ok()) << blocks.status().message();

  auto matrix = Matrix::SystematicCauchy(kN, kM);
  ASSERT_TRUE(matrix.ok());
  std::vector<const std::uint8_t*> srcs(kM);
  std::vector<const std::uint8_t*> coeffs(kN);
  for (std::uint32_t j = 0; j < kM; ++j) srcs[j] = file.data() + j * kBlock;
  for (std::uint32_t i = 0; i < kN; ++i) coeffs[i] = matrix->RowData(i);

  for (const KernelTable* k : Dispatch::Supported()) {
    std::vector<std::uint8_t> payloads(kN * kBlock, 0);
    std::vector<std::uint8_t*> dsts(kN);
    for (std::uint32_t i = 0; i < kN; ++i) {
      dsts[i] = payloads.data() + i * kBlock;
    }
    k->matrix_mul_accumulate(dsts.data(), srcs.data(), coeffs.data(), kN, kM,
                             kBlock);
    for (std::uint32_t i = 0; i < kN; ++i) {
      ASSERT_EQ(std::memcmp(dsts[i], (*blocks)[i].payload.data(), kBlock), 0)
          << "impl=" << k->name << " block=" << i;
    }
  }

  // And reconstruction from the last m blocks (all parity plus the trailing
  // data blocks) round-trips under the active implementation (the per-impl
  // rerun comes from the CI matrix).
  std::vector<ida::Block> subset(blocks->begin() + (kN - kM), blocks->end());
  auto rec = engine->Reconstruct(subset);
  ASSERT_TRUE(rec.ok()) << rec.status().message();
  EXPECT_EQ(*rec, file);
}

}  // namespace
}  // namespace bdisk::gf
