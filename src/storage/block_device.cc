#include "storage/block_device.h"

namespace steghide::storage {

Status BlockDevice::ReadBlock(uint64_t block_id, Bytes& out) {
  out.resize(block_size());
  return ReadBlock(block_id, out.data());
}

Status BlockDevice::WriteBlock(uint64_t block_id, const Bytes& data) {
  if (data.size() != block_size()) {
    return Status::InvalidArgument("write buffer size != block size");
  }
  return WriteBlock(block_id, data.data());
}

Status BlockDevice::ReadBlocks(std::span<const uint64_t> ids, Bytes& out) {
  out.resize(ids.size() * block_size());
  return ReadBlocks(ids, out.data());
}

Status BlockDevice::CheckRange(uint64_t block_id) const {
  if (block_id >= num_blocks()) {
    return Status::OutOfRange("block id " + std::to_string(block_id) +
                              " >= device size " +
                              std::to_string(num_blocks()));
  }
  return Status::OK();
}

}  // namespace steghide::storage
