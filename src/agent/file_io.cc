#include "agent/file_io.h"

#include <algorithm>
#include <cstring>

namespace steghide::agent {

using stegfs::HiddenFile;

Result<Bytes> ReadBytes(stegfs::StegFsCore& core, const HiddenFile& file,
                        uint64_t offset, size_t n) {
  if (n == 0 || offset >= file.file_size) return Bytes{};
  const uint64_t end = std::min<uint64_t>(offset + n, file.file_size);
  const size_t payload = core.payload_size();

  // One vectored fetch for the whole logical span, so the storage stack
  // (shard fan-out, retries, simulated disk) sees the request as a batch.
  const uint64_t first = offset / payload;
  const uint64_t last = (end - 1) / payload;  // inclusive; end > 0 from n > 0
  const uint64_t count = last - first + 1;
  Bytes payloads(count * payload);
  STEGHIDE_RETURN_IF_ERROR(
      core.ReadFileBlocks(file, first, count, payloads.data()));

  Bytes out;
  out.reserve(end - offset);
  for (uint64_t logical = first; logical <= last; ++logical) {
    const uint8_t* buf = payloads.data() + (logical - first) * payload;
    const uint64_t block_begin = logical * payload;
    const uint64_t lo = std::max<uint64_t>(offset, block_begin);
    const uint64_t hi = std::min<uint64_t>(end, block_begin + payload);
    out.insert(out.end(), buf + (lo - block_begin), buf + (hi - block_begin));
  }
  return out;
}

Status WriteBytes(stegfs::StegFsCore& core, UpdateEngine& engine,
                  HiddenFile& file, uint64_t offset, const uint8_t* data,
                  size_t n) {
  if (n == 0) return Status::OK();
  const size_t payload = core.payload_size();
  const uint64_t end = offset + n;

  // Zero-fill any gap between the current end of file and `offset` so the
  // block map stays dense.
  if (offset > file.file_size) {
    const Bytes zeros(payload, 0);
    while (file.num_data_blocks() * payload < offset) {
      STEGHIDE_RETURN_IF_ERROR(engine.Append(file, zeros.data()));
    }
  }

  for (uint64_t logical = offset / payload; logical * payload < end;
       ++logical) {
    const uint64_t block_begin = logical * payload;
    const uint64_t lo = std::max<uint64_t>(offset, block_begin);
    const uint64_t hi = std::min<uint64_t>(end, block_begin + payload);
    const uint8_t* src = data + (lo - offset);
    const size_t len = hi - lo;
    const size_t dst_off = lo - block_begin;

    if (logical < file.num_data_blocks()) {
      STEGHIDE_RETURN_IF_ERROR(engine.Update(
          file, logical, [&](uint8_t* p) { std::memcpy(p + dst_off, src, len); }));
    } else {
      Bytes fresh(payload, 0);
      std::memcpy(fresh.data() + dst_off, src, len);
      STEGHIDE_RETURN_IF_ERROR(engine.Append(file, fresh.data()));
    }
  }

  if (end > file.file_size) {
    file.file_size = end;
    file.dirty = true;
  }
  return Status::OK();
}

Status TruncateBytes(stegfs::StegFsCore& core, HiddenFile& file,
                     uint64_t new_size, std::vector<uint64_t>* released) {
  if (new_size > file.file_size) {
    return Status::InvalidArgument("TruncateBytes cannot grow a file");
  }
  const size_t payload = core.payload_size();
  const uint64_t keep_blocks = (new_size + payload - 1) / payload;
  while (file.num_data_blocks() > keep_blocks) {
    released->push_back(file.block_ptrs.back());
    file.block_ptrs.pop_back();
  }
  file.file_size = new_size;
  file.dirty = true;
  return Status::OK();
}

}  // namespace steghide::agent
