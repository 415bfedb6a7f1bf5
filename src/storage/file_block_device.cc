#include "storage/file_block_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>

namespace steghide::storage {

namespace {
Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}
}  // namespace

Result<FileBlockDevice> FileBlockDevice::Create(const std::string& path,
                                                uint64_t num_blocks,
                                                size_t block_size) {
  if (block_size == 0) {
    return Status::InvalidArgument("block size must be non-zero");
  }
  // off_t is signed; reject volumes whose byte size cannot be addressed.
  if (num_blocks > static_cast<uint64_t>(
                       std::numeric_limits<off_t>::max()) / block_size) {
    return Status::InvalidArgument("volume size overflows file offsets");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  if (fd < 0) return ErrnoStatus("open " + path);
  const off_t size = static_cast<off_t>(num_blocks * block_size);
  if (::ftruncate(fd, size) != 0) {
    ::close(fd);
    return ErrnoStatus("ftruncate " + path);
  }
  return FileBlockDevice(fd, num_blocks, block_size);
}

Result<FileBlockDevice> FileBlockDevice::Open(const std::string& path,
                                              size_t block_size) {
  if (block_size == 0) {
    return Status::InvalidArgument("block size must be non-zero");
  }
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return ErrnoStatus("open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return ErrnoStatus("fstat " + path);
  }
  if (st.st_size % static_cast<off_t>(block_size) != 0) {
    ::close(fd);
    return Status::InvalidArgument(path +
                                   " size is not a multiple of block size");
  }
  return FileBlockDevice(fd, static_cast<uint64_t>(st.st_size) / block_size,
                         block_size);
}

FileBlockDevice::FileBlockDevice(FileBlockDevice&& other) noexcept
    : fd_(other.fd_),
      num_blocks_(other.num_blocks_),
      block_size_(other.block_size_) {
  other.fd_ = -1;
}

FileBlockDevice& FileBlockDevice::operator=(FileBlockDevice&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    num_blocks_ = other.num_blocks_;
    block_size_ = other.block_size_;
    other.fd_ = -1;
  }
  return *this;
}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileBlockDevice::PreadBlock(uint64_t block_id, uint8_t* out) {
  STEGHIDE_RETURN_IF_ERROR(CheckRange(block_id));
  const off_t off = static_cast<off_t>(block_id * block_size_);
  size_t done = 0;
  while (done < block_size_) {
    const ssize_t n = ::pread(fd_, out + done, block_size_ - done,
                              off + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread");
    }
    if (n == 0) return Status::IoError("short read past end of volume");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FileBlockDevice::PwriteBlock(uint64_t block_id, const uint8_t* data) {
  STEGHIDE_RETURN_IF_ERROR(CheckRange(block_id));
  const off_t off = static_cast<off_t>(block_id * block_size_);
  size_t done = 0;
  while (done < block_size_) {
    const ssize_t n = ::pwrite(fd_, data + done, block_size_ - done,
                               off + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite");
    }
    // POSIX allows a zero-progress pwrite (e.g. on some special files);
    // looping on it would spin forever.
    if (n == 0) return Status::IoError("pwrite made no progress");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FileBlockDevice::ReadBlocks(std::span<const uint64_t> ids,
                                   uint8_t* out) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "FileBlockDevice");
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(PreadBlock(ids[i], out + i * block_size_));
  }
  return Status::OK();
}

Status FileBlockDevice::WriteBlocks(std::span<const uint64_t> ids,
                                    const uint8_t* data) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "FileBlockDevice");
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(PwriteBlock(ids[i], data + i * block_size_));
  }
  return Status::OK();
}

Status FileBlockDevice::Flush() {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "FileBlockDevice");
  // A moved-from device owns no descriptor; flushing it is a no-op
  // rather than an EBADF from fsync(-1).
  if (fd_ < 0) return Status::OK();
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync");
  return Status::OK();
}

}  // namespace steghide::storage
