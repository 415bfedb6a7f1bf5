#include "storage/mem_block_device.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>

namespace steghide::storage {

MemBlockDevice::MemBlockDevice(uint64_t num_blocks, size_t block_size)
    : num_blocks_(num_blocks),
      block_size_(block_size),
      size_(num_blocks * block_size) {
  if (size_ == 0) return;
  void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<uint8_t*>(p);
#ifdef MADV_HUGEPAGE
  // Best effort: where the kernel declines, the volume takes 4 KiB pages.
  madvise(p, size_, MADV_HUGEPAGE);
#endif
  // Fault every page in now, one write per base page, so the faults fall
  // in set-up and not in serving.
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  volatile uint8_t* bytes = data_;
  for (size_t off = 0; off < size_; off += page) bytes[off] = 0;
}

MemBlockDevice::~MemBlockDevice() {
  if (data_ != nullptr) munmap(data_, size_);
}

Status MemBlockDevice::ReadBlocks(std::span<const uint64_t> ids,
                                  uint8_t* out) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "MemBlockDevice");
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(CheckRange(ids[i]));
    std::memcpy(out + i * block_size_, data_ + ids[i] * block_size_,
                block_size_);
  }
  return Status::OK();
}

Status MemBlockDevice::WriteBlocks(std::span<const uint64_t> ids,
                                   const uint8_t* data) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "MemBlockDevice");
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(CheckRange(ids[i]));
    std::memcpy(data_ + ids[i] * block_size_, data + i * block_size_,
                block_size_);
  }
  return Status::OK();
}

const uint8_t* MemBlockDevice::BlockData(uint64_t block_id) const {
  return data_ + block_id * block_size_;
}

}  // namespace steghide::storage
