// Unit tests for the store plane: block devices, the typed IoResult error
// path, the free-space bitmap, the device fault-injection grammar, and the
// crash-safe BlockStore (format, recovery, staging, commit, typed
// checksum rejection). The whole-workload power-cut enumeration lives in
// store_crash_sweep_test.cc; the byte-identity scenario replay in
// store_scenario_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "ida/block.h"
#include "store/bitmap.h"
#include "store/block_device.h"
#include "store/block_store.h"
#include "store/fault_device.h"

namespace bdisk::store {
namespace {

constexpr std::size_t kBlockSize = 64;
constexpr std::uint64_t kBlockCount = 256;

// Deterministic stamped coded blocks for (file_id, version): n blocks of
// `payload_bytes` each, payload a function of every index.
std::vector<ida::Block> MakeBlocks(ida::FileId file_id, std::uint64_t version,
                                   std::uint32_t m, std::uint32_t n,
                                   std::size_t payload_bytes) {
  std::vector<ida::Block> blocks(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    blocks[i].header.file_id = file_id;
    blocks[i].header.block_index = i;
    blocks[i].header.reconstruct_threshold = m;
    blocks[i].header.total_blocks = n;
    blocks[i].header.version = version;
    blocks[i].payload.resize(payload_bytes);
    for (std::size_t b = 0; b < payload_bytes; ++b) {
      blocks[i].payload[b] = static_cast<std::uint8_t>(
          file_id * 7 + version * 131 + i * 17 + b);
    }
  }
  ida::StampChecksums(&blocks);
  return blocks;
}

std::unique_ptr<MemBlockDevice> MakeMem() {
  return std::make_unique<MemBlockDevice>(kBlockSize, kBlockCount);
}

// ---------------------------------------------------------------------------
// IoResult
// ---------------------------------------------------------------------------

TEST(IoResultTest, OkIsOk) {
  EXPECT_TRUE(IoResult::Ok().ok());
  EXPECT_TRUE(static_cast<bool>(IoResult::Ok()));
  EXPECT_TRUE(IoResult::Ok().ToStatus("ctx").ok());
}

TEST(IoResultTest, ToStringNamesOpAndBlock) {
  const IoResult r = IoResult::Errno(IoOp::kWrite, EIO, 17);
  EXPECT_FALSE(r.ok());
  const std::string s = r.ToString();
  EXPECT_NE(s.find("write"), std::string::npos) << s;
  EXPECT_NE(s.find("17"), std::string::npos) << s;
  EXPECT_NE(s.find("errno 5"), std::string::npos) << s;
}

TEST(IoResultTest, ToStatusPreservesCategory) {
  EXPECT_TRUE(IoResult::Errno(IoOp::kWrite, EIO).ToStatus("x").IsIoError());
  EXPECT_TRUE(IoResult::Errno(IoOp::kWrite, ENOSPC)
                  .ToStatus("x")
                  .IsResourceExhausted());
  EXPECT_TRUE(IoResult::PowerCut(IoOp::kSync).ToStatus("x").IsIoError());
  const IoResult rot{IoError::kChecksumMismatch, IoOp::kRead, 0, 3, 0};
  EXPECT_TRUE(rot.ToStatus("x").IsDataLoss());
}

// ---------------------------------------------------------------------------
// Devices
// ---------------------------------------------------------------------------

TEST(MemBlockDeviceTest, RoundTripsAndBoundsChecks) {
  auto dev = MakeMem();
  std::vector<std::uint8_t> in(kBlockSize, 0xAB), out(kBlockSize, 0);
  ASSERT_TRUE(dev->WriteBlock(5, in.data()).ok());
  ASSERT_TRUE(dev->ReadBlock(5, out.data()).ok());
  EXPECT_EQ(in, out);
  const IoResult r = dev->ReadBlock(kBlockCount, out.data());
  EXPECT_EQ(r.error, IoError::kOutOfRange);
  EXPECT_EQ(r.block, kBlockCount);
}

TEST(MemBlockDeviceTest, AttachSharesBytesAcrossReboot) {
  auto dev = MakeMem();
  std::vector<std::uint8_t> in(kBlockSize, 0x5C), out(kBlockSize, 0);
  ASSERT_TRUE(dev->WriteBlock(9, in.data()).ok());
  auto rebooted = MemBlockDevice::Attach(dev->buffer(), kBlockSize);
  ASSERT_TRUE(rebooted->ReadBlock(9, out.data()).ok());
  EXPECT_EQ(in, out);
}

TEST(MemBlockDeviceTest, NeverWrittenSectorReadsAsZeros) {
  // The device's bytes are allocated unwritten (CI reruns this suite with
  // MALLOC_PERTURB_, which fills them with 0x5A), so a sector reads zero
  // only because the device zero-fills the caller's buffer.
  auto dev = MakeMem();
  std::vector<std::uint8_t> in(kBlockSize, 0xAB), out(kBlockSize, 0xEE);
  ASSERT_TRUE(dev->WriteBlock(5, in.data()).ok());
  for (const std::uint64_t index : {std::uint64_t{0}, std::uint64_t{4},
                                    std::uint64_t{6}, kBlockCount - 1}) {
    std::fill(out.begin(), out.end(), 0xEE);
    ASSERT_TRUE(dev->ReadBlock(index, out.data()).ok());
    EXPECT_EQ(out, std::vector<std::uint8_t>(kBlockSize, 0)) << index;
  }
  ASSERT_TRUE(dev->ReadBlock(5, out.data()).ok());
  EXPECT_EQ(out, in);
}

// Forwards to a MemBlockDevice and applies every write to `dense` too:
// the image a zero-filled device holds after the same writes.
class MirroredDevice final : public BlockDevice {
 public:
  MirroredDevice(std::unique_ptr<MemBlockDevice> inner,
                 MemBlockDevice::Buffer* dense)
      : inner_(std::move(inner)), dense_(dense) {}

  std::size_t block_size() const override { return inner_->block_size(); }
  std::uint64_t block_count() const override { return inner_->block_count(); }
  IoResult ReadBlock(std::uint64_t index, void* out) override {
    return inner_->ReadBlock(index, out);
  }
  IoResult WriteBlock(std::uint64_t index, const void* data) override {
    const IoResult r = inner_->WriteBlock(index, data);
    if (r.ok()) {
      std::memcpy(dense_->data() + index * block_size(), data, block_size());
      written_.insert(index);
    }
    return r;
  }
  IoResult Sync() override { return inner_->Sync(); }

  std::size_t distinct_written() const { return written_.size(); }

 private:
  std::unique_ptr<MemBlockDevice> inner_;
  MemBlockDevice::Buffer* dense_;
  std::set<std::uint64_t> written_;
};

TEST(MemBlockDeviceTest, SparseImageEqualsADenseDeviceAndReopens) {
  auto mem = MakeMem();
  MemBlockDevice* sparse = mem.get();
  MemBlockDevice::Buffer dense(kBlockSize * kBlockCount, 0);
  auto mirrored = std::make_unique<MirroredDevice>(std::move(mem), &dense);
  const MirroredDevice* mirror = mirrored.get();
  auto store = BlockStore::Format(std::move(mirrored));
  ASSERT_TRUE(store.ok()) << store.status();
  std::vector<std::vector<ida::Block>> files;
  for (std::uint64_t version = 0; version < 3; ++version) {
    files.push_back(MakeBlocks(7, version, 2, 3, 100));
    ASSERT_TRUE((*store)->StageFile(files.back()).ok());
    if (version > 0) {
      ASSERT_TRUE((*store)->StageErase(7, version - 1).ok());
    }
    ASSERT_TRUE((*store)->Commit().ok());
  }
  // Most sectors were never written, so buffer() has sectors to fill.
  ASSERT_LT(mirror->distinct_written(), kBlockCount / 2);

  const std::shared_ptr<MemBlockDevice::Buffer> image = sparse->buffer();
  EXPECT_TRUE(*image == dense);
  const std::uint64_t generation = (*store)->generation();
  store->reset();

  auto reopened = BlockStore::Open(MemBlockDevice::Attach(image, kBlockSize));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->generation(), generation);
  EXPECT_EQ((*reopened)->FindEntry(7, 1), nullptr);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto block = (*reopened)->ReadCodedBlock(7, 2, i);
    ASSERT_TRUE(block.ok()) << block.status();
    EXPECT_EQ(*block, files[2][i]);
  }
}

// Resident set size of this process in bytes, or nullopt where
// /proc/self/status cannot be read.
std::optional<std::uint64_t> ResidentBytes() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return std::nullopt;
  char line[256];
  std::optional<std::uint64_t> kib;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    unsigned long long value = 0;
    if (std::sscanf(line, "VmRSS: %llu kB", &value) == 1) kib = value;
  }
  std::fclose(status);
  if (!kib.has_value()) return std::nullopt;
  return *kib * 1024;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BDISK_STORE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BDISK_STORE_TEST_SANITIZED 1
#endif
#endif

TEST(MemBlockDeviceTest, ConstructionTouchesNoSectorBytes) {
#ifdef BDISK_STORE_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators fill or shadow fresh memory";
#endif
  const char* perturb = std::getenv("MALLOC_PERTURB_");
  if (perturb != nullptr && std::atoi(perturb) != 0) {
    GTEST_SKIP() << "MALLOC_PERTURB_ fills every fresh allocation";
  }
  const std::optional<std::uint64_t> before = ResidentBytes();
  if (!before.has_value()) GTEST_SKIP() << "no VmRSS in /proc/self/status";
  constexpr std::size_t kSector = 4096;
  constexpr std::uint64_t kDeviceBytes = 64ull << 20;
  const MemBlockDevice dev(kSector, kDeviceBytes / kSector);
  const std::optional<std::uint64_t> after = ResidentBytes();
  ASSERT_TRUE(after.has_value());
  EXPECT_LT(*after - std::min(*after, *before), 4ull << 20)
      << "a 64 MiB device made " << *after - *before << " bytes resident";
}

TEST(FileBlockDeviceTest, CreateRejectsAGeometryPastOffT) {
  // 4096 x (2^52 + 1) bytes wraps to 4096: Create used to size a 4 KiB
  // file, and WriteBlock(2^52) then landed on sector 0.
  const std::string path = ::testing::TempDir() + "/bdisk_store_dev_wrap";
  for (const std::uint64_t count : {(1ull << 52) + 1, 1ull << 51}) {
    const auto dev = FileBlockDevice::Create(path, 4096, count);
    ASSERT_FALSE(dev.ok()) << count;
    EXPECT_TRUE(dev.status().IsInvalidArgument()) << dev.status();
  }
  std::remove(path.c_str());
}

TEST(MemBlockDeviceDeathTest, ConstructorChecksTheGeometry) {
  EXPECT_DEATH(MemBlockDevice(4096, (1ull << 52) + 1), "CHECK failed");
  EXPECT_DEATH(MemBlockDevice(0, 16), "CHECK failed");
}

TEST(FileBlockDeviceTest, CreateWriteReadReopen) {
  const std::string path = ::testing::TempDir() + "/bdisk_store_dev_test";
  {
    auto dev = FileBlockDevice::Create(path, kBlockSize, 16);
    ASSERT_TRUE(dev.ok()) << dev.status();
    std::vector<std::uint8_t> in(kBlockSize);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::uint8_t>(i);
    }
    ASSERT_TRUE((*dev)->WriteBlock(3, in.data()).ok());
    ASSERT_TRUE((*dev)->Sync().ok());
  }
  auto dev = FileBlockDevice::Open(path, kBlockSize);
  ASSERT_TRUE(dev.ok()) << dev.status();
  EXPECT_EQ((*dev)->block_count(), 16u);
  std::vector<std::uint8_t> out(kBlockSize, 0);
  ASSERT_TRUE((*dev)->ReadBlock(3, out.data()).ok());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::uint8_t>(i));
  }
  std::remove(path.c_str());
}

TEST(FileBlockDeviceTest, TruncatedBackingFileIsTypedShortReadNotSpin) {
  // Regression: a 0-byte pread (EOF inside the device extent, i.e. the
  // backing file was truncated underneath us) must surface as a typed
  // short read, not loop forever treating "no progress" as progress.
  const std::string path = ::testing::TempDir() + "/bdisk_store_trunc_test";
  auto dev = FileBlockDevice::Create(path, kBlockSize, 16);
  ASSERT_TRUE(dev.ok()) << dev.status();
  std::vector<std::uint8_t> buf(kBlockSize, 0xA7);
  ASSERT_TRUE((*dev)->WriteBlock(15, buf.data()).ok());
  // Shrink the file mid-block: block 4 now has half its bytes on disk.
  ASSERT_EQ(::truncate(path.c_str(), 4 * kBlockSize + kBlockSize / 2), 0);
  const IoResult r = (*dev)->ReadBlock(4, buf.data());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, IoError::kShortRead);
  EXPECT_EQ(r.op, IoOp::kRead);
  EXPECT_EQ(r.block, 4u);
  EXPECT_EQ(r.bytes, kBlockSize / 2);
  // A fully truncated-away block reads zero bytes before EOF.
  const IoResult r2 = (*dev)->ReadBlock(10, buf.data());
  EXPECT_EQ(r2.error, IoError::kShortRead);
  EXPECT_EQ(r2.bytes, 0u);
  std::remove(path.c_str());
}

TEST(IoResultTest, ShortWriteFactoryIsTypedWriteSide) {
  // The write loop's 0-byte-pwrite guard reports through this factory;
  // pin its shape so the error keeps naming the op, block, and progress.
  const IoResult r = IoResult::Short(IoOp::kWrite, 7, 128);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, IoError::kShortWrite);
  EXPECT_EQ(r.op, IoOp::kWrite);
  EXPECT_EQ(r.block, 7u);
  EXPECT_EQ(r.bytes, 128u);
}

TEST(FileBlockDeviceTest, OpenRejectsGeometryMismatch) {
  const std::string path = ::testing::TempDir() + "/bdisk_store_dev_odd";
  {
    auto dev = FileBlockDevice::Create(path, 96, 3);  // 288 bytes.
    ASSERT_TRUE(dev.ok()) << dev.status();
  }
  const auto reopened = FileBlockDevice::Open(path, kBlockSize);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(FileBlockDeviceTest, OpenMissingFileIsTypedIoError) {
  const auto dev =
      FileBlockDevice::Open(::testing::TempDir() + "/bdisk_no_such_device",
                            kBlockSize);
  ASSERT_FALSE(dev.ok());
  EXPECT_TRUE(dev.status().IsNotFound() || dev.status().IsIoError())
      << dev.status();
}

// ---------------------------------------------------------------------------
// FreeBitmap
// ---------------------------------------------------------------------------

TEST(FreeBitmapTest, AllocateRunIsFirstFit) {
  FreeBitmap bitmap(16);
  bitmap.Set(0);
  bitmap.Set(5);  // Free gaps: [1,5) of 4, [6,16) of 10.
  EXPECT_EQ(bitmap.AllocateRun(4), std::optional<std::uint64_t>(1));
  EXPECT_EQ(bitmap.AllocateRun(4), std::optional<std::uint64_t>(6));
  EXPECT_EQ(bitmap.AllocateRun(7), std::nullopt);  // Only 6 left.
  EXPECT_EQ(bitmap.AllocateRun(6), std::optional<std::uint64_t>(10));
  EXPECT_EQ(bitmap.FreeCount(), 0u);
  EXPECT_EQ(bitmap.AllocateRun(1), std::nullopt);
}

// The bit-by-bit first fit the word scan replaced: the lowest start whose
// `run` sectors are all free, or nullopt.
std::optional<std::uint64_t> ReferenceFirstFit(const FreeBitmap& bitmap,
                                               std::uint64_t run) {
  if (run == 0 || run > bitmap.size()) return std::nullopt;
  std::uint64_t have = 0;
  for (std::uint64_t i = 0; i < bitmap.size(); ++i) {
    have = bitmap.Test(i) ? 0 : have + 1;
    if (have == run) return i + 1 - run;
  }
  return std::nullopt;
}

TEST(FreeBitmapTest, WordScanMatchesBitByBitFirstFit) {
  Rng rng(17);
  std::uint64_t allocations = 0;
  for (std::uint64_t size = 1; size <= 300; ++size) {
    for (int trial = 0; trial < 4; ++trial) {
      // Sparse to dense fills, plus used runs that cross word boundaries.
      FreeBitmap bitmap(size);
      const std::uint64_t density = rng.Uniform(5);
      for (std::uint64_t i = 0; i < size; ++i) {
        if (rng.Uniform(4) < density) bitmap.Set(i);
      }
      for (int k = 0; k < 2; ++k) {
        const std::uint64_t first = rng.Uniform(size);
        bitmap.SetRun(first, rng.Uniform(std::min<std::uint64_t>(
                                 size - first + 1, 130)));
      }
      // Each answer must match the reference and mark exactly its run.
      const auto check = [&](std::uint64_t run) {
        const FreeBitmap before = bitmap;
        const std::optional<std::uint64_t> got = bitmap.AllocateRun(run);
        ASSERT_EQ(got, ReferenceFirstFit(before, run))
            << "size " << size << " run " << run;
        for (std::uint64_t i = 0; i < size; ++i) {
          const bool in_run = got.has_value() && i >= *got && i < *got + run;
          ASSERT_EQ(bitmap.Test(i), before.Test(i) || in_run)
              << "size " << size << " sector " << i;
        }
        if (got.has_value()) ++allocations;
      };
      // Random runs up to size + 1 (so run > size too), then single
      // sectors until the bitmap is exhausted.
      for (int step = 0; step < 24; ++step) check(1 + rng.Uniform(size + 1));
      while (bitmap.FreeCount() > 0) check(1);
      check(1);
      check(size);
    }
  }
  EXPECT_GT(allocations, 1000u);
}

TEST(FreeBitmapTest, AnySetAndSetRunAcrossWords) {
  FreeBitmap bitmap(200);
  bitmap.SetRun(60, 10);  // Crosses the word boundary at 64.
  EXPECT_TRUE(bitmap.AnySet(69, 1));
  EXPECT_FALSE(bitmap.AnySet(70, 130));
  EXPECT_FALSE(bitmap.AnySet(0, 60));
  EXPECT_TRUE(bitmap.AnySet(0, 61));
  EXPECT_FALSE(bitmap.AnySet(200, 0));
  EXPECT_EQ(bitmap.FreeCount(), 190u);
  bitmap.SetRun(0, 200);
  EXPECT_EQ(bitmap.FreeCount(), 0u);
  EXPECT_EQ(bitmap.AllocateRun(1), std::nullopt);
}

TEST(FreeBitmapTest, SetClearTestAndFreeCount) {
  FreeBitmap bitmap(130);  // Spans three 64-bit words.
  EXPECT_EQ(bitmap.FreeCount(), 130u);
  bitmap.Set(0);
  bitmap.Set(64);
  bitmap.Set(129);
  EXPECT_TRUE(bitmap.Test(64));
  EXPECT_FALSE(bitmap.Test(63));
  EXPECT_EQ(bitmap.FreeCount(), 127u);
  bitmap.Clear(64);
  EXPECT_FALSE(bitmap.Test(64));
  EXPECT_EQ(bitmap.FreeCount(), 128u);
}

// ---------------------------------------------------------------------------
// Device fault spec grammar
// ---------------------------------------------------------------------------

TEST(DeviceFaultSpecTest, ParsesAndDescribesComposition) {
  const auto config = ParseDeviceFaultSpec(
      "errno:op=sync,at=2,err=ENOSPC+torn:at=1,bytes=10,seed=7+powercut:"
      "at=9,torn=32");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->errnos.size(), 1u);
  EXPECT_EQ(config->errnos[0].op, IoOp::kSync);
  EXPECT_EQ(config->errnos[0].err, ENOSPC);
  ASSERT_EQ(config->torns.size(), 1u);
  EXPECT_EQ(config->torns[0].bytes, 10u);
  ASSERT_TRUE(config->powercut.has_value());
  EXPECT_EQ(config->powercut->at, 9u);
  EXPECT_EQ(config->powercut->torn_bytes, std::optional<std::uint64_t>(32));
  EXPECT_EQ(config->Describe(),
            "errno:op=sync,at=2,err=ENOSPC+torn:at=1,bytes=10,seed=7+"
            "powercut:at=9,torn=32");
}

TEST(DeviceFaultSpecTest, NoneIsEmptyConfig) {
  const auto config = ParseDeviceFaultSpec("none");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_TRUE(config->errnos.empty());
  EXPECT_FALSE(config->powercut.has_value());
  EXPECT_EQ(config->Describe(), "none");
}

TEST(DeviceFaultSpecTest, ErrorsNameTheOffendingToken) {
  const struct {
    const char* spec;
    const char* needle;
  } kCases[] = {
      {"flaky", "unknown model 'flaky'"},
      {"powercut:when=3", "unknown key 'when'"},
      {"powercut:at=soon", "'at=soon'"},
      {"errno:err=EPIPE", "'err=EPIPE'"},
      {"errno:op=readahead", "'op=readahead'"},
      {"errno:count=0", "'count=0'"},
      {"short:at=1,at=2", "duplicate key 'at'"},
      {"powercut:at=1+powercut:at=2", "more than one powercut"},
      {"torn:bytes", "expected key=value"},
      {"", "empty"},
  };
  for (const auto& c : kCases) {
    const auto config = ParseDeviceFaultSpec(c.spec);
    ASSERT_FALSE(config.ok()) << c.spec;
    EXPECT_TRUE(config.status().IsInvalidArgument()) << config.status();
    EXPECT_NE(config.status().message().find(c.needle), std::string::npos)
        << "spec '" << c.spec << "' produced: " << config.status();
  }
}

// ---------------------------------------------------------------------------
// FaultingBlockDevice
// ---------------------------------------------------------------------------

TEST(FaultingBlockDeviceTest, ErrnoInjectionHasNoSideEffect) {
  auto config = ParseDeviceFaultSpec("errno:op=write,at=1,err=EIO");
  ASSERT_TRUE(config.ok());
  FaultingBlockDevice dev(MakeMem(), *config);
  std::vector<std::uint8_t> a(kBlockSize, 1), b(kBlockSize, 2),
      out(kBlockSize, 0);
  ASSERT_TRUE(dev.WriteBlock(7, a.data()).ok());  // Ordinal 0: passes.
  const IoResult r = dev.WriteBlock(7, b.data());  // Ordinal 1: EIO.
  EXPECT_EQ(r.error, IoError::kErrno);
  EXPECT_EQ(r.raw_errno, EIO);
  ASSERT_TRUE(dev.ReadBlock(7, out.data()).ok());
  EXPECT_EQ(out, a);  // The failed write changed nothing.
  EXPECT_EQ(dev.writes_attempted(), 2u);
}

TEST(FaultingBlockDeviceTest, ShortWritePersistsPrefixAndReportsIt) {
  auto config = ParseDeviceFaultSpec("short:at=0,bytes=8");
  ASSERT_TRUE(config.ok());
  FaultingBlockDevice dev(MakeMem(), *config);
  std::vector<std::uint8_t> in(kBlockSize, 0xEE), out(kBlockSize, 0);
  const IoResult r = dev.WriteBlock(0, in.data());
  EXPECT_EQ(r.error, IoError::kShortWrite);
  EXPECT_EQ(r.bytes, 8u);
  ASSERT_TRUE(dev.ReadBlock(0, out.data()).ok());
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    EXPECT_EQ(out[i], i < 8 ? 0xEE : 0x00) << i;
  }
}

TEST(FaultingBlockDeviceTest, TornWriteLiesAboutSuccess) {
  auto config = ParseDeviceFaultSpec("torn:at=0,bytes=8,seed=3");
  ASSERT_TRUE(config.ok());
  FaultingBlockDevice dev(MakeMem(), *config);
  std::vector<std::uint8_t> in(kBlockSize, 0xEE), out(kBlockSize, 0);
  ASSERT_TRUE(dev.WriteBlock(0, in.data()).ok());  // Reports success.
  ASSERT_TRUE(dev.ReadBlock(0, out.data()).ok());
  EXPECT_NE(out, in);  // ...but the sector is torn.
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], 0xEE) << i;
}

TEST(FaultingBlockDeviceTest, PowerCutKillsEverySubsequentOp) {
  auto config = ParseDeviceFaultSpec("powercut:at=2");
  ASSERT_TRUE(config.ok());
  FaultingBlockDevice dev(MakeMem(), *config);
  std::vector<std::uint8_t> buf(kBlockSize, 0x11);
  ASSERT_TRUE(dev.WriteBlock(0, buf.data()).ok());
  ASSERT_TRUE(dev.WriteBlock(1, buf.data()).ok());
  EXPECT_FALSE(dev.dead());
  EXPECT_EQ(dev.WriteBlock(2, buf.data()).error, IoError::kPowerCut);
  EXPECT_TRUE(dev.dead());
  EXPECT_EQ(dev.ReadBlock(0, buf.data()).error, IoError::kPowerCut);
  EXPECT_EQ(dev.Sync().error, IoError::kPowerCut);
  EXPECT_EQ(dev.WriteBlock(3, buf.data()).error, IoError::kPowerCut);
}

// ---------------------------------------------------------------------------
// BlockStore
// ---------------------------------------------------------------------------

TEST(BlockStoreTest, FormatThenOpenIsEmptyGenerationOne) {
  auto mem = MakeMem();
  auto buffer = mem->buffer();
  {
    auto store = BlockStore::Format(std::move(mem));
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ((*store)->generation(), 1u);
    EXPECT_TRUE((*store)->catalog().empty());
  }
  auto reopened =
      BlockStore::Open(MemBlockDevice::Attach(buffer, kBlockSize));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->generation(), 1u);
  EXPECT_TRUE((*reopened)->catalog().empty());
}

TEST(BlockStoreTest, OpenUnformattedDeviceIsDataLoss) {
  const auto store = BlockStore::Open(MakeMem());
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsDataLoss()) << store.status();
}

TEST(BlockStoreTest, FormatRejectsTinyBlockSize) {
  const auto store =
      BlockStore::Format(std::make_unique<MemBlockDevice>(32, 64));
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsInvalidArgument());
}

TEST(BlockStoreTest, StageCommitReopenReadRoundTrip) {
  auto mem = MakeMem();
  auto buffer = mem->buffer();
  const auto blocks = MakeBlocks(/*file_id=*/4, /*version=*/2, 3, 5, 100);
  {
    auto store = BlockStore::Format(std::move(mem));
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE((*store)->StageFile(blocks).ok());
    // Not visible before commit.
    EXPECT_EQ((*store)->FindEntry(4, 2), nullptr);
    EXPECT_TRUE((*store)->ReadCodedBlock(4, 2, 0).status().IsNotFound());
    ASSERT_TRUE((*store)->Commit().ok());
    EXPECT_EQ((*store)->generation(), 2u);
    ASSERT_NE((*store)->FindEntry(4, 2), nullptr);
  }
  auto store = BlockStore::Open(MemBlockDevice::Attach(buffer, kBlockSize));
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->generation(), 2u);
  const CatalogEntry* entry = (*store)->FindEntry(4, 2);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->m, 3u);
  EXPECT_EQ(entry->n, 5u);
  EXPECT_EQ(entry->payload_bytes, 100u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto block = (*store)->ReadCodedBlock(4, 2, i);
    ASSERT_TRUE(block.ok()) << block.status();
    EXPECT_EQ(*block, blocks[i]);  // Header AND payload, bit for bit.
  }
}

TEST(BlockStoreTest, PartialTailSectorIsZeroPaddedOnDevice) {
  // A 100-byte payload on 64-byte sectors: one full sector written
  // straight from the payload, then a tail sector whose last 28 bytes
  // must be zeros on the device even though the sector held garbage.
  auto mem = MakeMem();
  auto buffer = mem->buffer();
  std::fill(buffer->begin(), buffer->end(), 0xEE);
  auto store = BlockStore::Format(std::move(mem));
  ASSERT_TRUE(store.ok()) << store.status();
  const auto blocks = MakeBlocks(1, 0, 2, 3, 100);
  ASSERT_TRUE((*store)->StageFile(blocks).ok());
  ASSERT_TRUE((*store)->Commit().ok());
  const CatalogEntry* entry = (*store)->FindEntry(1, 0);
  ASSERT_NE(entry, nullptr);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const std::uint8_t* extent =
        buffer->data() + entry->blocks[i].first_block * kBlockSize;
    EXPECT_TRUE(std::equal(extent, extent + 100,
                           blocks[i].payload.begin()))
        << "block " << i;
    for (std::size_t b = 100; b < 2 * kBlockSize; ++b) {
      ASSERT_EQ(extent[b], 0) << "block " << i << " byte " << b;
    }
    const auto read = (*store)->ReadCodedBlock(1, 0, i);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, blocks[i]);
  }
}

TEST(BlockStoreTest, StageFileValidatesIdentityAndStamps) {
  auto store = BlockStore::Format(MakeMem());
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE((*store)->StageFile({}).IsInvalidArgument());

  auto mixed = MakeBlocks(1, 0, 2, 3, 40);
  mixed[2].header.version = 9;  // Identity disagreement.
  ida::StampChecksum(&mixed[2]);
  EXPECT_TRUE((*store)->StageFile(mixed).IsInvalidArgument());

  auto unstamped = MakeBlocks(1, 0, 2, 3, 40);
  unstamped[1].header.checksum = 0;
  EXPECT_TRUE((*store)->StageFile(unstamped).IsInvalidArgument());

  const auto good = MakeBlocks(1, 0, 2, 3, 40);
  ASSERT_TRUE((*store)->StageFile(good).ok());
  EXPECT_TRUE((*store)->StageFile(good).IsInvalidArgument())
      << "restaging the same (file, version) must be rejected";
}

TEST(BlockStoreTest, StagedEraseDefersFreeUntilCommit) {
  // Device with room for one big file (plus metadata), not two: an erase
  // staged in the same transaction as a new file must NOT make the old
  // blocks reusable — shadow paging forbids touching the committed
  // generation.
  auto store =
      BlockStore::Format(std::make_unique<MemBlockDevice>(kBlockSize, 40));
  ASSERT_TRUE(store.ok()) << store.status();
  const auto v0 = MakeBlocks(0, 0, 2, 4, 7 * kBlockSize);  // 28 blocks.
  ASSERT_TRUE((*store)->StageFile(v0).ok());
  ASSERT_TRUE((*store)->Commit().ok());

  ASSERT_TRUE((*store)->StageErase(0, 0).ok());
  const auto v1 = MakeBlocks(0, 1, 2, 4, 7 * kBlockSize);
  const Status replace = (*store)->StageFile(v1);
  ASSERT_FALSE(replace.ok());
  EXPECT_TRUE(replace.IsResourceExhausted()) << replace;

  // After aborting and committing the erase ALONE, the space is back.
  (*store)->Abort();
  ASSERT_TRUE((*store)->StageErase(0, 0).ok());
  ASSERT_TRUE((*store)->Commit().ok());
  ASSERT_TRUE((*store)->StageFile(v1).ok());
  ASSERT_TRUE((*store)->Commit().ok());
  EXPECT_NE((*store)->FindEntry(0, 1), nullptr);
  EXPECT_EQ((*store)->FindEntry(0, 0), nullptr);
}

TEST(BlockStoreTest, AbortDiscardsStagedState) {
  auto store = BlockStore::Format(MakeMem());
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->StageFile(MakeBlocks(3, 0, 2, 3, 50)).ok());
  (*store)->Abort();
  ASSERT_TRUE((*store)->Commit().ok());  // Nothing dirty: no-op.
  EXPECT_EQ((*store)->generation(), 1u);
  EXPECT_EQ((*store)->FindEntry(3, 0), nullptr);
}

TEST(BlockStoreTest, BitRotSurfacesAsTypedDataLossNeverGarbage) {
  auto mem = MakeMem();
  auto buffer = mem->buffer();
  auto store = BlockStore::Format(std::move(mem));
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->StageFile(MakeBlocks(2, 1, 2, 3, 90)).ok());
  ASSERT_TRUE((*store)->Commit().ok());
  const CatalogEntry* entry = (*store)->FindEntry(2, 1);
  ASSERT_NE(entry, nullptr);

  // Flip one bit in the middle of coded block 1's on-disk payload.
  const std::uint64_t victim = entry->blocks[1].first_block;
  (*buffer)[victim * kBlockSize + 11] ^= 0x40;

  const auto rotted = (*store)->ReadCodedBlock(2, 1, 1);
  ASSERT_FALSE(rotted.ok());
  EXPECT_TRUE(rotted.status().IsDataLoss()) << rotted.status();
  // Undamaged siblings still read fine.
  EXPECT_TRUE((*store)->ReadCodedBlock(2, 1, 0).ok());
  EXPECT_TRUE((*store)->ReadCodedBlock(2, 1, 2).ok());
}

TEST(BlockStoreTest, TornSuperblockRecoversToOlderGeneration) {
  auto mem = MakeMem();
  auto buffer = mem->buffer();
  auto store = BlockStore::Format(std::move(mem));
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->StageFile(MakeBlocks(0, 0, 2, 3, 30)).ok());
  ASSERT_TRUE((*store)->Commit().ok());  // Generation 2, slot 0.
  ASSERT_TRUE((*store)->StageFile(MakeBlocks(1, 0, 2, 3, 30)).ok());
  ASSERT_TRUE((*store)->Commit().ok());  // Generation 3, slot 1.

  // Tear generation 3's superblock (slot 1): its CRC must reject, and
  // recovery must land on generation 2 — old, consistent, no file 1.
  (*buffer)[1 * kBlockSize + 30] ^= 0xFF;
  auto reopened =
      BlockStore::Open(MemBlockDevice::Attach(buffer, kBlockSize));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->generation(), 2u);
  EXPECT_NE((*reopened)->FindEntry(0, 0), nullptr);
  EXPECT_EQ((*reopened)->FindEntry(1, 0), nullptr);
}

// Commits one file (generation 2, in superblock slot 0), lets `edit`
// change that generation's superblock and catalog blob in place, and
// returns the device bytes with both CRCs re-sealed over the edit.
std::shared_ptr<MemBlockDevice::Buffer> CraftGenerationTwo(
    const std::function<void(std::uint8_t* superblock, std::uint8_t* catalog)>&
        edit) {
  auto mem = MakeMem();
  auto buffer = mem->buffer();
  {
    auto store = BlockStore::Format(std::move(mem));
    EXPECT_TRUE(store.ok()) << store.status();
    EXPECT_TRUE((*store)->StageFile(MakeBlocks(0, 0, 2, 3, 30)).ok());
    EXPECT_TRUE((*store)->Commit().ok());
  }
  std::uint8_t* const superblock = buffer->data();
  const auto get64 = [](const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
    return v;
  };
  const auto put32 = [](std::uint8_t* p, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) p[i] = (v >> (8 * i)) & 0xFF;
  };
  std::uint8_t* const catalog = buffer->data() + get64(superblock + 32) *
                                                     kBlockSize;
  const std::uint64_t catalog_bytes = get64(superblock + 40);
  edit(superblock, catalog);
  put32(superblock + 48, Crc32c(catalog, catalog_bytes));
  put32(superblock + 52, Crc32c(superblock, 52));
  return buffer;
}

void Put64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = (v >> (8 * i)) & 0xFF;
}

TEST(BlockStoreTest, CatalogExtentPastTheDeviceIsRejectedNotFatal) {
  // A catalog whose CRCs validate but whose first extent starts past the
  // end of the device lies about allocation: recovery must fall back to
  // the older generation rather than abort on an out-of-range bit.
  // Entry 0's first block reference sits after the count and the entry's
  // fixed fields.
  auto buffer = CraftGenerationTwo([](std::uint8_t*, std::uint8_t* catalog) {
    Put64(catalog + 8 + 28, kBlockCount + 1000);
  });
  auto reopened =
      BlockStore::Open(MemBlockDevice::Attach(buffer, kBlockSize));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->generation(), 1u);
  EXPECT_TRUE((*reopened)->catalog().empty());
}

TEST(BlockStoreTest, PayloadRunPastTheDeviceIsRejectedNotFatal) {
  // An entry's payload_bytes near 2^64 once wrapped its run of sectors to
  // 0, passed the allocation check, and made the first read of it abort
  // on a payload of that size. Recovery must reject that generation and
  // adopt the older one.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint64_t payload_bytes :
       {kMax - (kBlockSize - 1), kMax - (kBlockSize - 2), kMax,
        std::uint64_t{kBlockSize} * (kBlockCount + 1)}) {
    SCOPED_TRACE(payload_bytes);
    // Entry 0's payload_bytes follows the entry count and four fields.
    auto buffer = CraftGenerationTwo(
        [payload_bytes](std::uint8_t*, std::uint8_t* catalog) {
          Put64(catalog + 8 + 20, payload_bytes);
        });
    auto reopened =
        BlockStore::Open(MemBlockDevice::Attach(buffer, kBlockSize));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ((*reopened)->generation(), 1u);
    EXPECT_TRUE((*reopened)->catalog().empty());
    const auto read = (*reopened)->ReadCodedBlock(0, 0, 0);
    EXPECT_TRUE(read.status().IsNotFound()) << read.status();
  }
}

TEST(BlockStoreTest, CatalogLengthPastTheDeviceIsRejectedNotFatal) {
  // The same wrap in the superblock's catalog length once sized the
  // catalog read at nearly 2^64 bytes.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint64_t catalog_bytes :
       {kMax - (kBlockSize - 1), kMax}) {
    SCOPED_TRACE(catalog_bytes);
    auto buffer = CraftGenerationTwo(
        [catalog_bytes](std::uint8_t* superblock, std::uint8_t*) {
          Put64(superblock + 40, catalog_bytes);
        });
    auto reopened =
        BlockStore::Open(MemBlockDevice::Attach(buffer, kBlockSize));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ((*reopened)->generation(), 1u);
    EXPECT_TRUE((*reopened)->catalog().empty());
  }
}

TEST(BlockStoreTest, BothSuperblocksDamagedIsDataLoss) {
  auto mem = MakeMem();
  auto buffer = mem->buffer();
  {
    auto store = BlockStore::Format(std::move(mem));
    ASSERT_TRUE(store.ok()) << store.status();
  }
  (*buffer)[0 * kBlockSize + 5] ^= 0x01;
  (*buffer)[1 * kBlockSize + 5] ^= 0x01;
  const auto reopened =
      BlockStore::Open(MemBlockDevice::Attach(buffer, kBlockSize));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsDataLoss()) << reopened.status();
}

TEST(BlockStoreTest, FailedCommitPoisonsUntilAbortReadsStillServe) {
  auto config = ParseDeviceFaultSpec("errno:op=sync,err=EIO,count=100");
  ASSERT_TRUE(config.ok());
  // Build a committed store first on a clean device, then wrap the SAME
  // bytes in a faulting device for the failing update.
  auto mem = MakeMem();
  auto buffer = mem->buffer();
  {
    auto store = BlockStore::Format(std::move(mem));
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE((*store)->StageFile(MakeBlocks(0, 0, 2, 3, 30)).ok());
    ASSERT_TRUE((*store)->Commit().ok());
  }
  auto store = BlockStore::Open(std::make_unique<FaultingBlockDevice>(
      MemBlockDevice::Attach(buffer, kBlockSize), *config));
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->StageFile(MakeBlocks(1, 0, 2, 3, 30)).ok());
  const Status failed = (*store)->Commit();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsIoError()) << failed;
  EXPECT_TRUE((*store)->poisoned());
  // Mutation is rejected; reads of the committed generation still work.
  EXPECT_TRUE((*store)->StageErase(0, 0).IsIoError());
  EXPECT_TRUE((*store)->Commit().IsIoError());
  EXPECT_TRUE((*store)->ReadCodedBlock(0, 0, 0).ok());
  (*store)->Abort();
  EXPECT_FALSE((*store)->poisoned());
  EXPECT_TRUE((*store)->ReadCodedBlock(0, 0, 0).ok());
}

TEST(BlockStoreTest, StatsReflectCatalog) {
  auto store = BlockStore::Format(MakeMem());
  ASSERT_TRUE(store.ok()) << store.status();
  const StoreStats before = (*store)->Stats();
  EXPECT_EQ(before.generation, 1u);
  EXPECT_EQ(before.entries, 0u);
  EXPECT_EQ(before.total_blocks, kBlockCount);
  ASSERT_TRUE((*store)->StageFile(MakeBlocks(0, 0, 2, 4, 2 * kBlockSize)).ok());
  ASSERT_TRUE((*store)->Commit().ok());
  const StoreStats after = (*store)->Stats();
  EXPECT_EQ(after.entries, 1u);
  EXPECT_LT(after.free_blocks, before.free_blocks);
  EXPECT_NE(after.ToString().find("generation=2"), std::string::npos);
}

}  // namespace
}  // namespace bdisk::store
