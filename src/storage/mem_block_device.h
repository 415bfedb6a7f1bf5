#ifndef STEGHIDE_STORAGE_MEM_BLOCK_DEVICE_H_
#define STEGHIDE_STORAGE_MEM_BLOCK_DEVICE_H_

#include "storage/block_device.h"
#include "storage/thread_check.h"

namespace steghide::storage {

/// RAM-backed block device. Content is zero-initialised; the file-system
/// formatting step overwrites every block with random ciphertext, as the
/// paper requires (abandoned blocks are "initially filled with random
/// data").
///
/// The volume is one anonymous private mapping (zero pages from the
/// kernel, so nothing zeroes it twice), advised for transparent huge
/// pages and pre-faulted at construction by a write to one byte per
/// page, so the page faults fall in set-up rather than in the first pass
/// of serving. The destructor unmaps it.
///
/// Follows the single-issuer threading contract of block_device.h; debug
/// builds abort on overlapping calls from different threads.
class MemBlockDevice : public BlockDevice {
 public:
  /// Throws std::bad_alloc when the volume cannot be mapped.
  MemBlockDevice(uint64_t num_blocks, size_t block_size = kDefaultBlockSize);
  ~MemBlockDevice() override;

  MemBlockDevice(const MemBlockDevice&) = delete;
  MemBlockDevice& operator=(const MemBlockDevice&) = delete;

  using BlockDevice::ReadBlocks;

  /// Each call takes one serial-call guard (see file_block_device.h).
  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override;
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override;
  uint64_t num_blocks() const override { return num_blocks_; }
  size_t block_size() const override { return block_size_; }

  /// Direct read-only view of a block, for snapshotting without copies.
  const uint8_t* BlockData(uint64_t block_id) const;

 private:
  uint64_t num_blocks_;
  size_t block_size_;
  size_t size_;             // num_blocks_ * block_size_
  uint8_t* data_ = nullptr;  // null for a zero-block device
  SerialCallChecker serial_check_;
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_MEM_BLOCK_DEVICE_H_
