#include "agent/nonvolatile_agent.h"

#include "agent/file_io.h"
#include "crypto/key.h"

namespace steghide::agent {

using stegfs::FileAccessKey;
using stegfs::HiddenFile;

NonVolatileAgent::NonVolatileAgent(stegfs::StegFsCore* core,
                                   const Options& options)
    : core_(core),
      agent_key_(options.agent_key.empty()
                     ? core->drbg().Generate(crypto::kDefaultKeyLen)
                     : options.agent_key),
      bitmap_(core->num_blocks()),
      engine_(core, this) {}

Result<HiddenFile*> NonVolatileAgent::Lookup(FileId id) {
  auto it = open_files_.find(id);
  if (it == open_files_.end()) return Status::NotFound("unknown file handle");
  return it->second.get();
}

Result<const HiddenFile*> NonVolatileAgent::Lookup(FileId id) const {
  auto it = open_files_.find(id);
  if (it == open_files_.end()) return Status::NotFound("unknown file handle");
  return static_cast<const HiddenFile*>(it->second.get());
}

Result<NonVolatileAgent::FileId> NonVolatileAgent::CreateFile() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (bitmap_.dummy_count() == 0) return Status::NoSpace("volume full");
  // The header needs a home among the dummy blocks. A uniformly random
  // draw keeps header placement indistinguishable from the rest of the
  // update traffic.
  uint64_t location;
  do {
    location = core_->drbg().Uniform(core_->num_blocks());
  } while (bitmap_.IsData(location));

  auto file = std::make_unique<HiddenFile>();
  // Construction 1 encrypts every block under the agent's single secret
  // key (§4.1.2), so the per-file FAK carries the agent key; only the
  // location component distinguishes files.
  file->fak = FileAccessKey{location, agent_key_, agent_key_};
  file->dirty = true;
  bitmap_.MarkData(location);
  STEGHIDE_RETURN_IF_ERROR(core_->StoreFile(*file));

  const FileId id = next_id_++;
  open_files_.emplace(id, std::move(file));
  return id;
}

Result<NonVolatileAgent::FileId> NonVolatileAgent::OpenFile(
    const FileAccessKey& fak) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Construction 1 decrypts with the agent key regardless of what the
  // caller supplies in the key fields; the location is the credential the
  // user actually needs to remember.
  FileAccessKey effective{fak.header_location, agent_key_, agent_key_};
  STEGHIDE_ASSIGN_OR_RETURN(HiddenFile file, core_->LoadFile(effective));
  auto holder = std::make_unique<HiddenFile>(std::move(file));
  const FileId id = next_id_++;
  open_files_.emplace(id, std::move(holder));
  return id;
}

Result<Bytes> NonVolatileAgent::Read(FileId id, uint64_t offset, size_t n) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(HiddenFile * file, Lookup(id));
  return ReadBytes(*core_, *file, offset, n);
}

Status NonVolatileAgent::Write(FileId id, uint64_t offset, const uint8_t* data,
                               size_t n) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(HiddenFile * file, Lookup(id));
  return WriteBytes(*core_, engine_, *file, offset, data, n);
}

Status NonVolatileAgent::Truncate(FileId id, uint64_t new_size) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(HiddenFile * file, Lookup(id));
  std::vector<uint64_t> released;
  STEGHIDE_RETURN_IF_ERROR(TruncateBytes(*core_, *file, new_size, &released));
  // Released blocks keep their stale ciphertext, which is already
  // indistinguishable from abandonment; freeing costs no I/O.
  for (uint64_t b : released) bitmap_.MarkDummy(b);
  return Status::OK();
}

Status NonVolatileAgent::Flush(FileId id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(HiddenFile * file, Lookup(id));
  // Relocate the indirect blocks: release the old ones and claim fresh
  // uniformly random homes, so repeated flushes do not hammer fixed
  // positions.
  for (uint64_t old : file->indirect_locs) bitmap_.MarkDummy(old);
  const uint64_t needed = HiddenFile::IndirectNeeded(
      file->num_data_blocks(), core_->codec().block_size());
  file->indirect_locs.clear();
  file->indirect_locs.reserve(needed);
  for (uint64_t i = 0; i < needed; ++i) {
    STEGHIDE_ASSIGN_OR_RETURN(const uint64_t loc,
                              engine_.ClaimDummyBlock(*file));
    file->indirect_locs.push_back(loc);
  }
  return core_->StoreFile(*file);
}

Status NonVolatileAgent::DeleteFile(FileId id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(HiddenFile * file, Lookup(id));
  for (uint64_t b : file->block_ptrs) bitmap_.MarkDummy(b);
  for (uint64_t b : file->indirect_locs) bitmap_.MarkDummy(b);
  // Scrub the header so the file cannot be re-opened, then abandon it. To
  // an observer this is one more uniformly distributed update.
  STEGHIDE_RETURN_IF_ERROR(core_->RandomizeBlock(file->fak.header_location));
  bitmap_.MarkDummy(file->fak.header_location);
  open_files_.erase(id);
  return Status::OK();
}

Result<FileAccessKey> NonVolatileAgent::GetFak(FileId id) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(const HiddenFile* file, Lookup(id));
  return file->fak;
}

Result<uint64_t> NonVolatileAgent::FileSize(FileId id) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(const HiddenFile* file, Lookup(id));
  return file->file_size;
}

Status NonVolatileAgent::IdleDummyUpdates(uint64_t count) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (uint64_t i = 0; i < count; ++i) {
    STEGHIDE_RETURN_IF_ERROR(engine_.DummyUpdate());
  }
  return Status::OK();
}

Status NonVolatileAgent::RestoreBitmap(const Bytes& data) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(stegfs::BlockBitmap restored,
                            stegfs::BlockBitmap::Deserialize(data));
  if (restored.num_blocks() != core_->num_blocks()) {
    return Status::InvalidArgument("bitmap does not match volume size");
  }
  bitmap_ = std::move(restored);
  return Status::OK();
}

Status NonVolatileAgent::DummyUpdate(uint64_t physical) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Read, decrypt under the agent key, fresh IV, re-encrypt, write back
  // (§4.1.3). Works uniformly for data, tree, header and abandoned blocks
  // because construction 1 encrypts them all under one key (for abandoned
  // blocks the "plaintext" is meaningless, which is fine — it is never
  // interpreted).
  STEGHIDE_ASSIGN_OR_RETURN(const crypto::CbcCipher* cipher,
                            core_->CipherFor(agent_key_));
  Bytes& block = dummy_block_scratch_;
  STEGHIDE_RETURN_IF_ERROR(core_->ReadRaw(physical, block));
  STEGHIDE_RETURN_IF_ERROR(core_->codec().RefreshBlocks(
      *cipher, core_->drbg(), block.data(), 1, &refresh_scratch_));
  return core_->WriteRaw(physical, block);
}

void NonVolatileAgent::OnRelocate(HiddenFile& /*file*/, uint64_t /*logical*/,
                                  uint64_t from, uint64_t to) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  bitmap_.MarkDummy(from);
  bitmap_.MarkData(to);
}

void NonVolatileAgent::OnClaim(HiddenFile& /*file*/, uint64_t physical) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  bitmap_.MarkData(physical);
}

void NonVolatileAgent::OnClaimTree(HiddenFile& /*file*/, uint64_t physical) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  bitmap_.MarkData(physical);
}

}  // namespace steghide::agent
