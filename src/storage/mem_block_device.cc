#include "storage/mem_block_device.h"

#include <cstring>

namespace steghide::storage {

MemBlockDevice::MemBlockDevice(uint64_t num_blocks, size_t block_size)
    : num_blocks_(num_blocks),
      block_size_(block_size),
      data_(num_blocks * block_size, 0) {}

Status MemBlockDevice::ReadBlocks(std::span<const uint64_t> ids,
                                  uint8_t* out) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "MemBlockDevice");
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(CheckRange(ids[i]));
    std::memcpy(out + i * block_size_, data_.data() + ids[i] * block_size_,
                block_size_);
  }
  return Status::OK();
}

Status MemBlockDevice::WriteBlocks(std::span<const uint64_t> ids,
                                   const uint8_t* data) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "MemBlockDevice");
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(CheckRange(ids[i]));
    std::memcpy(data_.data() + ids[i] * block_size_, data + i * block_size_,
                block_size_);
  }
  return Status::OK();
}

const uint8_t* MemBlockDevice::BlockData(uint64_t block_id) const {
  return data_.data() + block_id * block_size_;
}

}  // namespace steghide::storage
