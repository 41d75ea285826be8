// Unit, property and failure-injection tests for IDA / AIDA.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/crc32c.h"
#include "common/random.h"
#include "gf/gf256.h"
#include "gf/matrix.h"
#include "ida/aida.h"
#include "ida/block.h"
#include "ida/dispersal.h"

namespace bdisk::ida {
namespace {

std::vector<std::uint8_t> RandomFile(std::size_t size, Rng* rng) {
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng->Uniform(256));
  return data;
}

TEST(BlockHeaderTest, ToStringIncludesAllFields) {
  BlockHeader h{3, 4, 5, 10};
  EXPECT_EQ(h.ToString(), "file=3 block=4/10 (m=5) v0");
  BlockHeader none;
  EXPECT_NE(none.ToString().find("<none>"), std::string::npos);
}

// Pins the stamp format: stores and --serve streams written by earlier
// binaries carry these values, so they must never change. The 1 KiB stamp
// was computed by the table-only CRC-32C kernel before the hardware one
// existed, the 32 KiB one (a span the SSE4.2 kernel splits into
// interleaved lanes) by the single-chain SSE4.2 kernel before the lanes;
// both predate the carry-less multiply fold.
TEST(BlockChecksumTest, StampOfAFixedBlockIsPinned) {
  struct Pin {
    std::size_t payload_bytes;
    std::uint32_t stamp;
  };
  for (const Pin pin : {Pin{1024, 0xD411F21Bu}, Pin{32768, 0x96937D49u}}) {
    Block block;
    block.header = {.file_id = 7,
                    .block_index = 3,
                    .reconstruct_threshold = 5,
                    .total_blocks = 8,
                    .version = 42};
    block.payload.resize(pin.payload_bytes);
    for (std::size_t i = 0; i < block.payload.size(); ++i) {
      block.payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    EXPECT_EQ(BlockChecksum(block), pin.stamp) << pin.payload_bytes;

    // The same coverage (identity bytes, then payload) through every kernel
    // this host can run, so the pin holds on each of them.
    const auto identity = SerializeIdentity(block.header);
    for (const auto& kernel : bdisk::internal::Crc32cKernels()) {
      std::uint32_t crc = kernel.extend(0, identity.data(), identity.size());
      crc = kernel.extend(crc, block.payload.data(), block.payload.size());
      EXPECT_EQ(crc, pin.stamp) << pin.payload_bytes << " on " << kernel.name;
    }
  }
}

TEST(DispersalTest, CreateValidation) {
  EXPECT_TRUE(Dispersal::Create(0, 5, 16).status().IsInvalidArgument());
  EXPECT_TRUE(Dispersal::Create(5, 4, 16).status().IsInvalidArgument());
  EXPECT_TRUE(Dispersal::Create(5, 10, 0).status().IsInvalidArgument());
  EXPECT_TRUE(Dispersal::Create(5, 300, 16).status().IsInvalidArgument());
  EXPECT_TRUE(Dispersal::Create(5, 10, 16).ok());
  EXPECT_TRUE(Dispersal::Create(1, 1, 1).ok());
}

TEST(DispersalTest, DisperseProducesSelfIdentifyingBlocks) {
  auto d = Dispersal::Create(3, 6, 8);
  ASSERT_TRUE(d.ok());
  Rng rng(1);
  const auto file = RandomFile(3 * 8, &rng);
  auto blocks = d->Disperse(7, file);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*blocks)[i].header.file_id, 7u);
    EXPECT_EQ((*blocks)[i].header.block_index, i);
    EXPECT_EQ((*blocks)[i].header.reconstruct_threshold, 3u);
    EXPECT_EQ((*blocks)[i].header.total_blocks, 6u);
    EXPECT_EQ((*blocks)[i].payload.size(), 8u);
  }
}

TEST(DispersalTest, SystematicPrefixCopiesData) {
  auto d = Dispersal::Create(2, 5, 4);
  ASSERT_TRUE(d.ok());
  const std::vector<std::uint8_t> file{1, 2, 3, 4, 5, 6, 7, 8};
  auto blocks = d->Disperse(0, file);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ((*blocks)[0].payload, (Payload{1, 2, 3, 4}));
  EXPECT_EQ((*blocks)[1].payload, (Payload{5, 6, 7, 8}));
}

TEST(DispersalTest, WrongFileSizeRejected) {
  auto d = Dispersal::Create(3, 6, 8);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->Disperse(0, std::vector<std::uint8_t>(23, 0))
                  .status()
                  .IsInvalidArgument());
}

// Property: any m of the N dispersed blocks reconstruct the original —
// exhaustive over all C(6,3) = 20 subsets, in random order.
TEST(DispersalTest, DisperseInPlaceRejectsWrongBlockCountOrPayloadSize) {
  auto engine = Dispersal::Create(3, 5, 16);
  ASSERT_TRUE(engine.ok());
  std::vector<Block> blocks(4);
  for (std::size_t j = 0; j < 3; ++j) blocks[j].payload.assign(16, 1);
  Status st = engine->DisperseInPlace(7, 2, &blocks);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("n = 5 blocks, got 4"), std::string::npos) << st;

  blocks.resize(5);
  blocks[1].payload.resize(15);
  st = engine->DisperseInPlace(7, 2, &blocks);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("data block 1 holds 15 bytes"),
            std::string::npos)
      << st;
  // A rejected call touches nothing.
  for (const Block& b : blocks) EXPECT_EQ(b.header, BlockHeader{});
  EXPECT_TRUE(blocks[3].payload.empty());
}

TEST(DispersalTest, DisperseInPlaceIsDisperseWithoutTheCopy) {
  // Disperse copies the rows in and runs this same encoder, so the two
  // agree byte for byte, headers included, whatever the parity payloads
  // held before.
  Rng rng(17);
  auto engine = Dispersal::Create(4, 7, 40);
  ASSERT_TRUE(engine.ok());
  const auto file = RandomFile(4 * 40, &rng);
  auto dispersed = engine->Disperse(3, file, 9);
  ASSERT_TRUE(dispersed.ok());
  std::vector<Block> blocks(7);
  for (std::size_t j = 0; j < 4; ++j) {
    blocks[j].payload.assign(file.begin() + 40 * j,
                             file.begin() + 40 * (j + 1));
  }
  blocks[5].payload.assign(100, 0xAB);
  ASSERT_TRUE(engine->DisperseInPlace(3, 9, &blocks).ok());
  EXPECT_EQ(blocks, *dispersed);
}

TEST(DispersalTest, AnyMSubsetReconstructsExhaustive) {
  auto d = Dispersal::Create(3, 6, 16);
  ASSERT_TRUE(d.ok());
  Rng rng(2);
  const auto file = RandomFile(3 * 16, &rng);
  auto blocks = d->Disperse(1, file);
  ASSERT_TRUE(blocks.ok());
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      for (std::size_t k = j + 1; k < 6; ++k) {
        std::vector<Block> subset{(*blocks)[k], (*blocks)[i], (*blocks)[j]};
        auto rec = d->Reconstruct(subset);
        ASSERT_TRUE(rec.ok()) << "subset " << i << "," << j << "," << k;
        EXPECT_EQ(*rec, file);
      }
    }
  }
}

struct GeometryParam {
  std::uint32_t m;
  std::uint32_t n;
  std::size_t block_size;
};

class DispersalGeometryTest : public ::testing::TestWithParam<GeometryParam> {};

// Property sweep over geometries: random m-subsets reconstruct; m-1 blocks
// fail with DataLoss.
TEST_P(DispersalGeometryTest, RandomSubsetsRoundTrip) {
  const GeometryParam p = GetParam();
  auto d = Dispersal::Create(p.m, p.n, p.block_size);
  ASSERT_TRUE(d.ok());
  Rng rng(p.m * 1000003 + p.n);
  const auto file = RandomFile(p.m * p.block_size, &rng);
  auto blocks = d->Disperse(9, file);
  ASSERT_TRUE(blocks.ok());

  for (int trial = 0; trial < 10; ++trial) {
    const auto idx = rng.SampleWithoutReplacement(p.n, p.m);
    std::vector<Block> subset;
    for (std::size_t i : idx) subset.push_back((*blocks)[i]);
    auto rec = d->Reconstruct(subset);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, file);
  }

  if (p.m > 1) {
    const auto idx = rng.SampleWithoutReplacement(p.n, p.m - 1);
    std::vector<Block> subset;
    for (std::size_t i : idx) subset.push_back((*blocks)[i]);
    EXPECT_TRUE(d->Reconstruct(subset).status().IsDataLoss());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DispersalGeometryTest,
    ::testing::Values(GeometryParam{1, 1, 4}, GeometryParam{1, 8, 4},
                      GeometryParam{2, 3, 32}, GeometryParam{5, 10, 64},
                      GeometryParam{8, 12, 128}, GeometryParam{16, 24, 16},
                      GeometryParam{32, 48, 8}, GeometryParam{64, 96, 4}),
    [](const ::testing::TestParamInfo<GeometryParam>& info) {
      std::string name = "m";
      name += std::to_string(info.param.m);
      name += "n";
      name += std::to_string(info.param.n);
      name += "b";
      name += std::to_string(info.param.block_size);
      return name;
    });

// The erased-rows-only solve, swept from a one-block file to the widest
// dispersal over GF(2^8) at every block size (32 KiB only up to n = 10):
// seeded m-subsets in arrival order with duplicates mixed in, parity-only
// wherever m <= n - m, all byte-exact; a straggler of another version is
// rejected.
TEST(DispersalTest, ReconstructSweepIsByteExact) {
  struct Geometry {
    std::uint32_t m;
    std::uint32_t n;
  };
  for (const Geometry g : {Geometry{1, 1}, Geometry{1, 3}, Geometry{2, 2},
                           Geometry{2, 6}, Geometry{4, 6}, Geometry{6, 8},
                           Geometry{8, 10}, Geometry{32, 35},
                           Geometry{128, 256}}) {
    for (const std::size_t block_size : {1, 7, 1024, 32768}) {
      if (block_size == 32768 && g.n > 10) continue;
      SCOPED_TRACE("m=" + std::to_string(g.m) + " n=" + std::to_string(g.n) +
                   " block_size=" + std::to_string(block_size));
      auto d = Dispersal::Create(g.m, g.n, block_size);
      ASSERT_TRUE(d.ok());
      Rng rng(g.m * 1009 + g.n * 31 + block_size);
      const auto file = RandomFile(g.m * block_size, &rng);
      auto blocks = d->Disperse(3, file, /*version=*/5);
      ASSERT_TRUE(blocks.ok());
      auto other = d->Disperse(3, RandomFile(g.m * block_size, &rng), 6);
      ASSERT_TRUE(other.ok());
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<std::size_t> idx;
        if (trial == 0 && g.m <= g.n - g.m) {
          idx = rng.SampleWithoutReplacement(g.n - g.m, g.m);
          for (std::size_t& i : idx) i += g.m;
        } else {
          idx = rng.SampleWithoutReplacement(g.n, g.m);
        }
        rng.Shuffle(&idx);
        std::vector<Block> offered;
        for (const std::size_t i : idx) offered.push_back((*blocks)[i]);
        for (std::size_t dup = 0; dup <= idx.size() / 2; ++dup) {
          offered.insert(offered.begin() + rng.Uniform(offered.size() + 1),
                         (*blocks)[idx[rng.Uniform(idx.size())]]);
        }
        auto rec = d->Reconstruct(offered);
        ASSERT_TRUE(rec.ok()) << "trial " << trial << ": " << rec.status();
        ASSERT_EQ(*rec, file) << "trial " << trial;

        offered.insert(offered.begin(), (*other)[rng.Uniform(g.n)]);
        if (g.m > 1) {
          EXPECT_TRUE(d->Reconstruct(offered).status().IsInvalidArgument());
        }
      }
    }
  }
}

// SolveErasures keys the inverse cache by the received set in ascending
// order, and says so instead of solving a permuted subset.
TEST(DispersalTest, SolveErasuresTakesAscendingDistinctRows) {
  auto d = Dispersal::Create(2, 5, 8);
  ASSERT_TRUE(d.ok());
  Rng rng(12);
  const auto file = RandomFile(16, &rng);
  auto blocks = d->Disperse(0, file);
  ASSERT_TRUE(blocks.ok());
  const std::uint8_t* parity[] = {(*blocks)[3].payload.data(),
                                  (*blocks)[4].payload.data()};
  std::vector<std::uint8_t> out(16, 0);
  for (const auto& received : {std::vector<std::size_t>{4, 3},
                               std::vector<std::size_t>{3, 3},
                               std::vector<std::size_t>{3, 5}}) {
    EXPECT_TRUE(d->SolveErasures(received.data(), parity, out.data())
                    .IsInvalidArgument());
  }
  const std::vector<std::size_t> received{3, 4};
  ASSERT_TRUE(d->SolveErasures(received.data(), parity, out.data()).ok());
  EXPECT_EQ(out, file);
  EXPECT_EQ(d->cached_inverse_count(), 1u);
}

TEST(DispersalTest, DuplicateBlocksIgnored) {
  auto d = Dispersal::Create(2, 4, 8);
  ASSERT_TRUE(d.ok());
  Rng rng(3);
  const auto file = RandomFile(16, &rng);
  auto blocks = d->Disperse(0, file);
  ASSERT_TRUE(blocks.ok());
  // Duplicates of block 0 do not count toward the threshold.
  std::vector<Block> dup{(*blocks)[0], (*blocks)[0], (*blocks)[0]};
  EXPECT_TRUE(d->Reconstruct(dup).status().IsDataLoss());
  // But a duplicate plus a distinct block works.
  std::vector<Block> okset{(*blocks)[0], (*blocks)[0], (*blocks)[3]};
  auto rec = d->Reconstruct(okset);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, file);
}

TEST(DispersalTest, GeometryMismatchRejected) {
  auto d = Dispersal::Create(2, 4, 8);
  auto other = Dispersal::Create(3, 6, 8);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(other.ok());
  Rng rng(4);
  auto foreign = other->Disperse(0, RandomFile(24, &rng));
  ASSERT_TRUE(foreign.ok());
  std::vector<Block> mixed{(*foreign)[0], (*foreign)[1]};
  EXPECT_TRUE(d->Reconstruct(mixed).status().IsInvalidArgument());
}

TEST(DispersalTest, CorruptPayloadSizeRejected) {
  auto d = Dispersal::Create(2, 4, 8);
  ASSERT_TRUE(d.ok());
  Rng rng(5);
  auto blocks = d->Disperse(0, RandomFile(16, &rng));
  ASSERT_TRUE(blocks.ok());
  Payload& payload = (*blocks)[1].payload;
  payload.erase(payload.begin() + 5, payload.end());
  std::vector<Block> subset{(*blocks)[0], (*blocks)[1]};
  EXPECT_TRUE(d->Reconstruct(subset).status().IsInvalidArgument());
}

TEST(DispersalTest, InverseCacheGrowsAndIsReused) {
  auto d = Dispersal::Create(2, 4, 8);
  ASSERT_TRUE(d.ok());
  Rng rng(6);
  const auto file = RandomFile(16, &rng);
  auto blocks = d->Disperse(0, file);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(d->cached_inverse_count(), 0u);
  std::vector<Block> s1{(*blocks)[0], (*blocks)[2]};
  ASSERT_TRUE(d->Reconstruct(s1).ok());
  EXPECT_EQ(d->cached_inverse_count(), 1u);
  // Same subset in the other order hits the cache.
  std::vector<Block> s2{(*blocks)[2], (*blocks)[0]};
  ASSERT_TRUE(d->Reconstruct(s2).ok());
  EXPECT_EQ(d->cached_inverse_count(), 1u);
  std::vector<Block> s3{(*blocks)[1], (*blocks)[3]};
  ASSERT_TRUE(d->Reconstruct(s3).ok());
  EXPECT_EQ(d->cached_inverse_count(), 2u);
}

TEST(AidaTest, AllocateScalesRedundancy) {
  auto aida = Aida::Create(3, 9, 8);
  ASSERT_TRUE(aida.ok());
  Rng rng(7);
  const auto file = RandomFile(24, &rng);
  auto dispersed = aida->Disperse(0, file);
  ASSERT_TRUE(dispersed.ok());

  auto minimal = aida->Allocate(*dispersed, 3);
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->size(), 3u);

  auto maximal = aida->Allocate(*dispersed, 9);
  ASSERT_TRUE(maximal.ok());
  EXPECT_EQ(maximal->size(), 9u);

  EXPECT_TRUE(aida->Allocate(*dispersed, 2).status().IsInvalidArgument());
  EXPECT_TRUE(aida->Allocate(*dispersed, 10).status().IsInvalidArgument());
}

TEST(AidaTest, MinimalAllocationStillReconstructs) {
  auto aida = Aida::Create(3, 9, 8);
  ASSERT_TRUE(aida.ok());
  Rng rng(8);
  const auto file = RandomFile(24, &rng);
  auto tx = aida->DisperseAndAllocate(0, file, 3);
  ASSERT_TRUE(tx.ok());
  auto rec = aida->Reconstruct(*tx);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, file);
}

TEST(AidaTest, FaultToleranceArithmetic) {
  auto aida = Aida::Create(5, 10, 8);
  ASSERT_TRUE(aida.ok());
  auto n0 = aida->BlocksForFaultTolerance(0);
  ASSERT_TRUE(n0.ok());
  EXPECT_EQ(*n0, 5u);
  auto n5 = aida->BlocksForFaultTolerance(5);
  ASSERT_TRUE(n5.ok());
  EXPECT_EQ(*n5, 10u);
  EXPECT_TRUE(aida->BlocksForFaultTolerance(6).status().IsInvalidArgument());
  EXPECT_DOUBLE_EQ(aida->RedundancyRatio(10), 2.0);
}

TEST(AidaTest, RedundancyProfileModes) {
  RedundancyProfile profile(5, 10);
  profile.SetMode("combat", 10);
  profile.SetMode("landing", 6);
  profile.SetMode("excessive", 99);  // Clamped to n_max.
  EXPECT_EQ(profile.BlocksForMode("combat"), 10u);
  EXPECT_EQ(profile.BlocksForMode("landing"), 6u);
  EXPECT_EQ(profile.BlocksForMode("excessive"), 10u);
  EXPECT_EQ(profile.BlocksForMode("unknown"), 5u);  // Defaults to m.
  EXPECT_EQ(profile.FaultsToleratedInMode("combat"), 5u);
  EXPECT_EQ(profile.FaultsToleratedInMode("unknown"), 0u);
}

TEST(PaddingTest, PadToFileSize) {
  auto padded = PadToFileSize({1, 2, 3}, 2, 4);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(*padded, (std::vector<std::uint8_t>{1, 2, 3, 0, 0, 0, 0, 0}));
  EXPECT_TRUE(PadToFileSize(std::vector<std::uint8_t>(9, 1), 2, 4)
                  .status()
                  .IsInvalidArgument());
}

TEST(PaddingTest, BlocksNeeded) {
  EXPECT_EQ(BlocksNeeded(0, 16), 1u);
  EXPECT_EQ(BlocksNeeded(1, 16), 1u);
  EXPECT_EQ(BlocksNeeded(16, 16), 1u);
  EXPECT_EQ(BlocksNeeded(17, 16), 2u);
  EXPECT_EQ(BlocksNeeded(160, 16), 10u);
}

// The paper's Figure 6 geometry: A is 5 blocks dispersed to 10, B is 3
// dispersed to 6; any 5 (resp. 3) reconstruct.
TEST(PaperExampleTest, Figure6Geometries) {
  Rng rng(9);
  auto a = Dispersal::Create(5, 10, 32);
  auto b = Dispersal::Create(3, 6, 32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto file_a = RandomFile(5 * 32, &rng);
  const auto file_b = RandomFile(3 * 32, &rng);
  auto blocks_a = a->Disperse(0, file_a);
  auto blocks_b = b->Disperse(1, file_b);
  ASSERT_TRUE(blocks_a.ok());
  ASSERT_TRUE(blocks_b.ok());
  // Client misses A'1..A'5 entirely and still reconstructs from A'6..A'10.
  std::vector<Block> tail(blocks_a->begin() + 5, blocks_a->end());
  auto rec = a->Reconstruct(tail);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, file_a);
  // B tolerates any 3 losses out of 6.
  std::vector<Block> some{(*blocks_b)[1], (*blocks_b)[4], (*blocks_b)[5]};
  auto rec_b = b->Reconstruct(some);
  ASSERT_TRUE(rec_b.ok());
  EXPECT_EQ(*rec_b, file_b);
}

TEST(DispersalTest, DisperseMatchesMulSlowReferenceByteIdentically) {
  // The dispersed blocks are a wire format: block i, byte k must equal
  // sum_j M[i][j] * file_j[k] with M = SystematicCauchy(n, m), computed
  // here with the bitwise MulSlow oracle. This pins the encoding against
  // changes to the bulk GF(2^8) kernels that back Disperse.
  const std::uint32_t m = 5;
  const std::uint32_t n = 11;
  const std::size_t block_size = 96;
  auto engine = Dispersal::Create(m, n, block_size);
  ASSERT_TRUE(engine.ok());
  Rng rng(20260728);
  const auto file = RandomFile(m * block_size, &rng);
  auto blocks = engine->Disperse(7, file, 3);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), n);

  auto matrix = gf::Matrix::SystematicCauchy(n, m);
  ASSERT_TRUE(matrix.ok());
  for (std::uint32_t i = 0; i < n; ++i) {
    const Block& blk = (*blocks)[i];
    ASSERT_EQ(blk.payload.size(), block_size);
    for (std::size_t k = 0; k < block_size; ++k) {
      std::uint8_t expected = 0;
      for (std::uint32_t j = 0; j < m; ++j) {
        expected ^= gf::GF256::MulSlow(matrix->At(i, j),
                                       file[j * block_size + k]);
      }
      ASSERT_EQ(blk.payload[k], expected) << "block=" << i << " byte=" << k;
    }
  }
}

}  // namespace
}  // namespace bdisk::ida
