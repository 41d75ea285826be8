#include "store/block_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>

#include "common/check.h"

namespace bdisk::store {

namespace {

// True iff the geometry is positive and its byte size fits off_t, so no
// byte offset on the device (index * block_size + done) wraps.
bool GeometryFits(std::size_t block_size, std::uint64_t block_count) {
  return block_size != 0 && block_count != 0 &&
         block_count <= static_cast<std::uint64_t>(
                            std::numeric_limits<off_t>::max()) /
                            block_size;
}

}  // namespace

const char* IoErrorToString(IoError error) {
  switch (error) {
    case IoError::kOk:
      return "ok";
    case IoError::kErrno:
      return "os error";
    case IoError::kShortWrite:
      return "short write";
    case IoError::kShortRead:
      return "short read";
    case IoError::kOutOfRange:
      return "block out of range";
    case IoError::kPowerCut:
      return "power cut";
    case IoError::kChecksumMismatch:
      return "checksum mismatch";
    case IoError::kCorruptMeta:
      return "corrupt metadata";
  }
  return "unknown";
}

const char* IoOpToString(IoOp op) {
  switch (op) {
    case IoOp::kNone:
      return "none";
    case IoOp::kOpen:
      return "open";
    case IoOp::kRead:
      return "read";
    case IoOp::kWrite:
      return "write";
    case IoOp::kSync:
      return "sync";
    case IoOp::kTruncate:
      return "truncate";
  }
  return "unknown";
}

std::string IoResult::ToString() const {
  if (ok()) return "ok";
  std::string out(IoOpToString(op));
  if (block != kNoBlock) {
    out += " of block " + std::to_string(block);
  }
  out += " failed: ";
  out += IoErrorToString(error);
  if (error == IoError::kErrno) {
    out += " (errno " + std::to_string(raw_errno) + " '" +
           std::strerror(raw_errno) + "')";
  } else if (error == IoError::kShortWrite || error == IoError::kShortRead) {
    out += " (" + std::to_string(bytes) + " bytes transferred)";
  }
  return out;
}

Status IoResult::ToStatus(const std::string& context) const {
  if (ok()) return Status::OK();
  const std::string msg = context + ": " + ToString();
  if (error == IoError::kChecksumMismatch) return Status::DataLoss(msg);
  if (error == IoError::kCorruptMeta) return Status::DataLoss(msg);
  if (error == IoError::kErrno && raw_errno == ENOSPC) {
    return Status::ResourceExhausted(msg);
  }
  return Status::IoError(msg);
}

// ---------------------------------------------------------------------------
// FileBlockDevice
// ---------------------------------------------------------------------------

Result<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Create(
    const std::string& path, std::size_t block_size,
    std::uint64_t block_count) {
  if (!GeometryFits(block_size, block_count)) {
    return Status::InvalidArgument(
        "FileBlockDevice: block_size " + std::to_string(block_size) +
        " x block_count " + std::to_string(block_count) +
        " must be positive and fit off_t in bytes");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return IoResult::Errno(IoOp::kOpen, errno).ToStatus("FileBlockDevice '" +
                                                        path + "'");
  }
  const auto bytes =
      static_cast<off_t>(block_size * static_cast<std::size_t>(block_count));
  if (::ftruncate(fd, bytes) != 0) {
    const IoResult r = IoResult::Errno(IoOp::kTruncate, errno);
    ::close(fd);
    return r.ToStatus("FileBlockDevice '" + path + "'");
  }
  return std::unique_ptr<FileBlockDevice>(
      new FileBlockDevice(fd, block_size, block_count));
}

Result<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Open(
    const std::string& path, std::size_t block_size) {
  if (block_size == 0) {
    return Status::InvalidArgument(
        "FileBlockDevice: block_size must be positive");
  }
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return IoResult::Errno(IoOp::kOpen, errno).ToStatus("FileBlockDevice '" +
                                                        path + "'");
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    const IoResult r = IoResult::Errno(IoOp::kOpen, errno);
    ::close(fd);
    return r.ToStatus("FileBlockDevice '" + path + "'");
  }
  if (size == 0 || static_cast<std::uint64_t>(size) % block_size != 0) {
    ::close(fd);
    return Status::InvalidArgument(
        "FileBlockDevice '" + path + "': file size " + std::to_string(size) +
        " is not a non-zero multiple of block size " +
        std::to_string(block_size));
  }
  return std::unique_ptr<FileBlockDevice>(new FileBlockDevice(
      fd, block_size, static_cast<std::uint64_t>(size) / block_size));
}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ >= 0) ::close(fd_);
}

IoResult FileBlockDevice::ReadBlock(std::uint64_t index, void* out) {
  if (index >= block_count_) return IoResult::OutOfRange(IoOp::kRead, index);
  auto* dst = static_cast<std::uint8_t*>(out);
  std::size_t done = 0;
  while (done < block_size_) {
    const ssize_t n =
        ::pread(fd_, dst + done, block_size_ - done,
                static_cast<off_t>(index * block_size_ + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoResult::Errno(IoOp::kRead, errno, index);
    }
    if (n == 0) {
      // EOF inside the fixed extent: the file was truncated underneath us.
      return IoResult::Short(IoOp::kRead, index, done);
    }
    done += static_cast<std::size_t>(n);
  }
  return IoResult::Ok();
}

IoResult FileBlockDevice::WriteBlock(std::uint64_t index, const void* data) {
  if (index >= block_count_) return IoResult::OutOfRange(IoOp::kWrite, index);
  const auto* src = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < block_size_) {
    const ssize_t n =
        ::pwrite(fd_, src + done, block_size_ - done,
                 static_cast<off_t>(index * block_size_ + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoResult::Errno(IoOp::kWrite, errno, index);
    }
    if (n == 0) {
      // A 0-byte pwrite is not progress (a full device / zero-size
      // extent reports this way); looping on it would spin forever.
      return IoResult::Short(IoOp::kWrite, index, done);
    }
    done += static_cast<std::size_t>(n);
  }
  return IoResult::Ok();
}

IoResult FileBlockDevice::Sync() {
  if (::fsync(fd_) != 0) return IoResult::Errno(IoOp::kSync, errno);
  return IoResult::Ok();
}

// ---------------------------------------------------------------------------
// MemBlockDevice
// ---------------------------------------------------------------------------

MemBlockDevice::MemBlockDevice(std::size_t block_size,
                               std::uint64_t block_count)
    : block_size_(block_size),
      block_count_([&] {
        // Before written_ or the buffer sizes anything from the product.
        BDISK_CHECK(GeometryFits(block_size, block_count));
        return block_count;
      }()),
      written_(block_count_) {
  buffer_ = std::make_shared<Buffer>(block_size * block_count);
}

MemBlockDevice::MemBlockDevice(std::shared_ptr<Buffer> buffer,
                               std::size_t block_size)
    : buffer_(std::move(buffer)), block_size_(block_size),
      block_count_(buffer_->size() / block_size), written_(block_count_) {
  written_.SetRun(0, block_count_);
}

std::shared_ptr<MemBlockDevice::Buffer> MemBlockDevice::buffer() {
  for (std::uint64_t i = 0; i < block_count_; ++i) {
    if (!written_.Test(i)) {
      std::memset(buffer_->data() + i * block_size_, 0, block_size_);
    }
  }
  written_.SetRun(0, block_count_);
  return buffer_;
}

IoResult MemBlockDevice::ReadBlock(std::uint64_t index, void* out) {
  if (index >= block_count_) return IoResult::OutOfRange(IoOp::kRead, index);
  if (written_.Test(index)) {
    std::memcpy(out, buffer_->data() + index * block_size_, block_size_);
  } else {
    std::memset(out, 0, block_size_);
  }
  return IoResult::Ok();
}

IoResult MemBlockDevice::WriteBlock(std::uint64_t index, const void* data) {
  if (index >= block_count_) return IoResult::OutOfRange(IoOp::kWrite, index);
  std::memcpy(buffer_->data() + index * block_size_, data, block_size_);
  written_.Set(index);
  return IoResult::Ok();
}

}  // namespace bdisk::store
