#ifndef STEGHIDE_STORAGE_FILE_BLOCK_DEVICE_H_
#define STEGHIDE_STORAGE_FILE_BLOCK_DEVICE_H_

#include <string>

#include "storage/block_device.h"
#include "storage/thread_check.h"
#include "util/result.h"

namespace steghide::storage {

/// Block device backed by a host file, so a formatted steganographic
/// volume can persist across runs (the paper's implementation stores the
/// volume on a raw disk partition; a file is the portable equivalent).
///
/// Follows the single-issuer threading contract of block_device.h; debug
/// builds abort on overlapping calls from different threads. Concurrent
/// users go through the dispatcher's single I/O thread.
class FileBlockDevice : public BlockDevice {
 public:
  /// Creates (or truncates) `path` sized for `num_blocks` blocks.
  static Result<FileBlockDevice> Create(const std::string& path,
                                        uint64_t num_blocks,
                                        size_t block_size = kDefaultBlockSize);

  /// Opens an existing volume file. The file size must be a multiple of
  /// `block_size`.
  static Result<FileBlockDevice> Open(const std::string& path,
                                      size_t block_size = kDefaultBlockSize);

  FileBlockDevice(FileBlockDevice&& other) noexcept;
  FileBlockDevice& operator=(FileBlockDevice&& other) noexcept;
  FileBlockDevice(const FileBlockDevice&) = delete;
  FileBlockDevice& operator=(const FileBlockDevice&) = delete;
  ~FileBlockDevice() override;

  using BlockDevice::ReadBlocks;

  /// Each call takes one serial-call guard over the *whole* batch, so
  /// two interleaved batches from different threads trip the checker
  /// even when their per-block steps happen not to overlap.
  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override;
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override;
  uint64_t num_blocks() const override { return num_blocks_; }
  size_t block_size() const override { return block_size_; }
  Status Flush() override;

 private:
  FileBlockDevice(int fd, uint64_t num_blocks, size_t block_size)
      : fd_(fd), num_blocks_(num_blocks), block_size_(block_size) {}

  /// One block through pread/pwrite, resuming short transfers.
  Status PreadBlock(uint64_t block_id, uint8_t* out);
  Status PwriteBlock(uint64_t block_id, const uint8_t* data);

  int fd_ = -1;
  uint64_t num_blocks_ = 0;
  size_t block_size_ = kDefaultBlockSize;
  /// Debug-only issuing-thread assertion; transient state, deliberately
  /// reset (not transferred) on move.
  SerialCallChecker serial_check_;
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_FILE_BLOCK_DEVICE_H_
