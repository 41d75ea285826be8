/// \file block_device.h
/// \brief Fixed-geometry block devices: the bottom of the store plane.
///
/// A BlockDevice is an array of `block_count` sectors of `block_size`
/// bytes, addressed by index, with whole-sector reads and writes and an
/// explicit durability barrier (Sync). Everything above — the free-space
/// bitmap, the CRC-stamped catalog, the two-version swap — is written in
/// terms of this interface, which is what makes every failure mode
/// injectable: FaultingBlockDevice (fault_device.h) wraps any device and
/// fails chosen operations with chosen errors, so the recovery sweep can
/// kill the store at every write boundary of a real workload.
///
/// Two implementations ship:
///  * FileBlockDevice — a fixed-size file accessed via pread/pwrite.
///    Partial transfers from the kernel are retried to completion (POSIX
///    permits them on signals and large requests), so a short write that
///    *reports* as short can only come from fault injection — real
///    devices either complete the sector or fail with errno.
///  * MemBlockDevice — an in-memory device for hermetic tests and for
///    servers whose store need not outlive the process (pipebench's
///    update_churn). It is sparse: construction allocates its bytes
///    without writing them and a bitmap records which sectors were ever
///    written, so a device pays only for the sectors it writes (update_churn
///    writes ~1.5k of its 7.4k 4 KiB sectors). A never-written sector
///    reads as zeros, filled into the caller's buffer; `buffer()` zero-fills
///    every never-written sector before it hands the bytes out, so an image
///    is byte-for-byte what a zero-filled device would hold.
///
/// The write-atomicity model the store's crash-safety proof relies on:
/// a WriteBlock either persists the whole sector (it returned OK) or is
/// governed by the failure it returned. Torn in-flight sectors at a power
/// cut are modeled explicitly by the fault layer, never assumed away.

#ifndef BDISK_STORE_BLOCK_DEVICE_H_
#define BDISK_STORE_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/default_init_allocator.h"
#include "common/status.h"
#include "store/bitmap.h"
#include "store/io_result.h"

namespace bdisk::store {

/// \brief Abstract fixed-geometry block device.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Sector size in bytes (constant over the device's lifetime).
  virtual std::size_t block_size() const = 0;
  /// Number of sectors.
  virtual std::uint64_t block_count() const = 0;

  /// Reads sector `index` into `out` (block_size() bytes).
  virtual IoResult ReadBlock(std::uint64_t index, void* out) = 0;
  /// Writes `data` (block_size() bytes) to sector `index`.
  virtual IoResult WriteBlock(std::uint64_t index, const void* data) = 0;
  /// Durability barrier: all previously OK writes are on stable storage
  /// when Sync returns OK.
  virtual IoResult Sync() = 0;
};

/// \brief A fixed-size block file accessed via pread/pwrite.
class FileBlockDevice final : public BlockDevice {
 public:
  /// Creates (or truncates to size) `path` as a device of
  /// `block_count * block_size` bytes. Fails with InvalidArgument unless
  /// both are positive and that byte size fits off_t.
  static Result<std::unique_ptr<FileBlockDevice>> Create(
      const std::string& path, std::size_t block_size,
      std::uint64_t block_count);

  /// Opens an existing device file. The file size must be a non-zero
  /// multiple of `block_size`; the block count is derived from it.
  static Result<std::unique_ptr<FileBlockDevice>> Open(
      const std::string& path, std::size_t block_size);

  ~FileBlockDevice() override;
  FileBlockDevice(const FileBlockDevice&) = delete;
  FileBlockDevice& operator=(const FileBlockDevice&) = delete;

  std::size_t block_size() const override { return block_size_; }
  std::uint64_t block_count() const override { return block_count_; }

  IoResult ReadBlock(std::uint64_t index, void* out) override;
  IoResult WriteBlock(std::uint64_t index, const void* data) override;
  IoResult Sync() override;

 private:
  FileBlockDevice(int fd, std::size_t block_size, std::uint64_t block_count)
      : fd_(fd), block_size_(block_size), block_count_(block_count) {}

  int fd_;
  std::size_t block_size_;
  std::uint64_t block_count_;
};

/// \brief Sparse in-memory device. The backing buffer may be shared
/// between instances (via Attach) to model reopening a device that survived
/// a simulated crash without touching the filesystem.
///
/// Reads as a zero-filled device would, but writes only the sectors written
/// to it (see the file comment). Like the store above it, one thread uses a
/// device at a time: a write marks its sector in a bitmap that reads test.
class MemBlockDevice final : public BlockDevice {
 public:
  /// The device's bytes. Sized without a zero-fill: a byte of a sector
  /// never written holds whatever the heap returned until `buffer()`.
  using Buffer = std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>>;

  /// A device of `block_count` sectors that all read as zeros.
  /// CHECK-fails unless `block_size` is positive and the device's byte size
  /// fits off_t, as FileBlockDevice::Create requires.
  MemBlockDevice(std::size_t block_size, std::uint64_t block_count);

  /// A second device over the same bytes (the "after reboot" view). Every
  /// sector of `buffer` counts as written.
  static std::unique_ptr<MemBlockDevice> Attach(
      std::shared_ptr<Buffer> buffer, std::size_t block_size) {
    return std::unique_ptr<MemBlockDevice>(
        new MemBlockDevice(std::move(buffer), block_size));
  }

  /// The device's bytes, shared with the device. Zero-fills every sector
  /// never written and marks it written first, so the image equals a
  /// zero-filled device after the same writes, and later writes through
  /// either the device or the returned buffer are seen by both.
  std::shared_ptr<Buffer> buffer();

  std::size_t block_size() const override { return block_size_; }
  std::uint64_t block_count() const override { return block_count_; }

  /// A never-written sector zero-fills `out` and leaves the buffer alone.
  IoResult ReadBlock(std::uint64_t index, void* out) override;
  IoResult WriteBlock(std::uint64_t index, const void* data) override;
  IoResult Sync() override { return IoResult::Ok(); }

 private:
  MemBlockDevice(std::shared_ptr<Buffer> buffer, std::size_t block_size);

  std::shared_ptr<Buffer> buffer_;
  std::size_t block_size_;
  std::uint64_t block_count_;
  // A set bit marks a sector whose bytes in buffer_ are the device's.
  FreeBitmap written_;
};

}  // namespace bdisk::store

#endif  // BDISK_STORE_BLOCK_DEVICE_H_
