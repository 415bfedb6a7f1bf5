#include "stegfs/stegfs_core.h"

#include <cassert>
#include <cstring>

namespace steghide::stegfs {

StegFsCore::StegFsCore(storage::BlockDevice* device,
                       const StegFsOptions& options)
    : device_(device),
      codec_(device->block_size()),
      drbg_(options.drbg_seed),
      format_rng_(options.drbg_seed ^ 0x666f726d61745f5fULL),
      fast_format_(options.fast_format) {
  assert(device->block_size() >= kMinBlockSize);
}

Status StegFsCore::Format() {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  Bytes block(codec_.block_size());
  for (uint64_t b = 0; b < device_->num_blocks(); ++b) {
    if (fast_format_) {
      format_rng_.Fill(block.data(), block.size());
    } else {
      drbg().Generate(block.data(), block.size());
    }
    STEGHIDE_RETURN_IF_ERROR(device_->WriteBlock(b, block.data()));
  }
  return Status::OK();
}

Result<const crypto::CbcCipher*> StegFsCore::CipherFor(const Bytes& key) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  auto it = cipher_cache_.find(key);
  if (it != cipher_cache_.end()) return it->second.get();
  auto cipher = std::make_unique<crypto::CbcCipher>();
  STEGHIDE_RETURN_IF_ERROR(cipher->SetKey(key));
  const crypto::CbcCipher* ptr = cipher.get();
  cipher_cache_.emplace(key, std::move(cipher));
  return ptr;
}

Result<HiddenFile> StegFsCore::LoadFile(const FileAccessKey& fak) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  if (fak.header_location >= num_blocks()) {
    return Status::OutOfRange("header location beyond volume");
  }
  STEGHIDE_ASSIGN_OR_RETURN(const crypto::CbcCipher* header_cipher,
                            CipherFor(fak.header_key));
  Bytes block;
  STEGHIDE_RETURN_IF_ERROR(ReadRaw(fak.header_location, block));
  Bytes payload(codec_.payload_size());
  STEGHIDE_RETURN_IF_ERROR(
      codec_.Open(*header_cipher, block.data(), payload.data()));

  HiddenFile file;
  file.fak = fak;
  STEGHIDE_RETURN_IF_ERROR(
      ParseHeader(payload.data(), codec_.block_size(), &file));

  // Pull in indirect blocks to complete the pointer map — one vectored
  // read and one batched open for the whole tree.
  if (!file.indirect_locs.empty()) {
    Bytes tree;
    STEGHIDE_RETURN_IF_ERROR(ReadRawBatch(file.indirect_locs, tree));
    const size_t count = file.indirect_locs.size();
    if (tree_payloads_.size() < count * codec_.payload_size()) {
      tree_payloads_.resize(count * codec_.payload_size());
    }
    STEGHIDE_RETURN_IF_ERROR(codec_.OpenBlocks(*header_cipher, tree.data(),
                                               count, tree_payloads_.data()));
    for (uint64_t i = 0; i < count; ++i) {
      ParseIndirect(tree_payloads_.data() + i * codec_.payload_size(), i,
                    codec_.block_size(), &file);
    }
  }
  return file;
}

Status StegFsCore::StoreFile(HiddenFile& file) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  if (file.num_data_blocks() > MaxFileBlocks(codec_.block_size())) {
    return Status::InvalidArgument(
        "file exceeds the maximum representable size");
  }
  const uint64_t indirect_needed =
      HiddenFile::IndirectNeeded(file.num_data_blocks(), codec_.block_size());
  if (file.indirect_locs.size() != indirect_needed) {
    return Status::FailedPrecondition(
        "indirect block locations not sized for file");
  }
  STEGHIDE_ASSIGN_OR_RETURN(const crypto::CbcCipher* header_cipher,
                            CipherFor(file.fak.header_key));

  // Serialize header + tree into consecutive payloads, seal them as one
  // multi-chain batch, and write the images with a single vectored
  // request (header first, as before).
  const size_t ps = codec_.payload_size();
  const size_t count = 1 + file.indirect_locs.size();
  std::vector<uint64_t> ids;
  ids.reserve(count);
  Bytes images(count * codec_.block_size());
  if (tree_payloads_.size() < count * ps) tree_payloads_.resize(count * ps);

  SerializeHeader(file, codec_.block_size(), tree_payloads_.data());
  ids.push_back(file.fak.header_location);
  for (uint64_t i = 0; i < file.indirect_locs.size(); ++i) {
    SerializeIndirect(file, i, codec_.block_size(),
                      tree_payloads_.data() + (i + 1) * ps);
    ids.push_back(file.indirect_locs[i]);
  }
  STEGHIDE_RETURN_IF_ERROR(codec_.SealBlocks(
      *header_cipher, drbg(), tree_payloads_.data(), count, images.data()));
  STEGHIDE_RETURN_IF_ERROR(device_->WriteBlocks(ids, images.data()));
  file.dirty = false;
  return Status::OK();
}

Status StegFsCore::ReadFileBlock(const HiddenFile& file, uint64_t logical,
                                 uint8_t* out_payload) {
  return ReadFileBlockSet(file, std::span<const uint64_t>(&logical, 1),
                          out_payload);
}

Status StegFsCore::ReadFileBlockSet(const HiddenFile& file,
                                    std::span<const uint64_t> logicals,
                                    uint8_t* out_payloads) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  if (logicals.empty()) return Status::OK();
  std::vector<uint64_t> physical;
  physical.reserve(logicals.size());
  for (const uint64_t logical : logicals) {
    if (logical >= file.num_data_blocks()) {
      return Status::OutOfRange("logical block beyond end of file");
    }
    physical.push_back(file.block_ptrs[logical]);
  }
  Bytes blocks;
  STEGHIDE_RETURN_IF_ERROR(ReadRawBatch(physical, blocks));

  if (file.is_dummy) {
    // Dummy content is unkeyed randomness; hand back the raw data fields.
    for (size_t i = 0; i < logicals.size(); ++i) {
      std::memcpy(out_payloads + i * codec_.payload_size(),
                  blocks.data() + i * codec_.block_size() + kIvSize,
                  codec_.payload_size());
    }
    return Status::OK();
  }
  STEGHIDE_ASSIGN_OR_RETURN(const crypto::CbcCipher* cipher,
                            CipherFor(file.fak.content_key));
  // Both sides are contiguous: the whole miss-fill decrypts as one
  // multi-chain batch.
  return codec_.OpenBlocks(*cipher, blocks.data(), logicals.size(),
                           out_payloads);
}

Status StegFsCore::ReadFileBlocks(const HiddenFile& file, uint64_t logical,
                                  uint64_t count, uint8_t* out_payloads) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  if (count == 0) return Status::OK();
  // Overflow-safe form of `logical + count > num_data_blocks`.
  if (logical >= file.num_data_blocks() ||
      count > file.num_data_blocks() - logical) {
    return Status::OutOfRange("logical block beyond end of file");
  }
  std::vector<uint64_t> logicals(count);
  for (uint64_t i = 0; i < count; ++i) logicals[i] = logical + i;
  return ReadFileBlockSet(file, logicals, out_payloads);
}

Status StegFsCore::WriteDataBlockAt(const HiddenFile& file, uint64_t physical,
                                    const uint8_t* payload) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  Bytes block(codec_.block_size());
  if (file.is_dummy) {
    codec_.Randomize(drbg(), block.data());
  } else {
    STEGHIDE_ASSIGN_OR_RETURN(const crypto::CbcCipher* cipher,
                              CipherFor(file.fak.content_key));
    STEGHIDE_RETURN_IF_ERROR(
        codec_.Seal(*cipher, drbg(), payload, block.data()));
  }
  return WriteRaw(physical, block);
}

Status StegFsCore::ReadRaw(uint64_t physical, Bytes& out) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  return device_->ReadBlock(physical, out);
}

Status StegFsCore::ReadRawBatch(std::span<const uint64_t> physical,
                                Bytes& out) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  return device_->ReadBlocks(physical, out);
}

Status StegFsCore::WriteRaw(uint64_t physical, const Bytes& block) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  return device_->WriteBlock(physical, block);
}

Status StegFsCore::RandomizeBlock(uint64_t physical) {
  STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "StegFsCore");
  Bytes block(codec_.block_size());
  codec_.Randomize(drbg(), block.data());
  return WriteRaw(physical, block);
}

}  // namespace steghide::stegfs
