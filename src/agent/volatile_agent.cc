#include "agent/volatile_agent.h"

#include <algorithm>
#include <cassert>

#include "agent/file_io.h"

namespace steghide::agent {

using stegfs::FileAccessKey;
using stegfs::HiddenFile;

VolatileAgent::VolatileAgent(stegfs::StegFsCore* core)
    : core_(core), engine_(core, this) {}

Result<VolatileAgent::OpenFile*> VolatileAgent::Lookup(FileId id) {
  auto it = files_.find(id);
  if (it == files_.end()) return Status::NotFound("unknown file handle");
  return it->second.get();
}

Result<const VolatileAgent::OpenFile*> VolatileAgent::Lookup(FileId id) const {
  auto it = files_.find(id);
  if (it == files_.end()) return Status::NotFound("unknown file handle");
  return static_cast<const OpenFile*>(it->second.get());
}

uint64_t VolatileAgent::RandomUnownedBlock() {
  // The agent cannot see undisclosed files, so "unowned" means "not owned
  // by any *disclosed* file". The residual chance of landing on a
  // logged-out user's block is the data-loss risk inherent to StegFS;
  // deployments keep utilisation low precisely to bound it.
  for (;;) {
    const uint64_t b = core_->drbg().Uniform(core_->num_blocks());
    if (owners_.find(b) == owners_.end()) return b;
  }
}

bool VolatileAgent::IsDummy(uint64_t physical) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const auto it = owners_.find(physical);
  if (it == owners_.end() || it->second.kind != BlockKind::kData) return false;
  const auto fit = files_.find(it->second.file_id);
  assert(fit != files_.end());
  return fit->second->file.is_dummy;
}

void VolatileAgent::AddToDomain(uint64_t physical, const OwnerInfo& owner) {
  assert(owners_.find(physical) == owners_.end());
  assert(domain_index_.find(physical) == domain_index_.end());
  owners_[physical] = owner;
  domain_index_[physical] = domain_.size();
  domain_.push_back(physical);
  if (IsDummy(physical)) ++dummy_count_;
}

void VolatileAgent::RemoveFromDomain(uint64_t physical) {
  if (IsDummy(physical)) --dummy_count_;
  const auto it = domain_index_.find(physical);
  assert(it != domain_index_.end());
  const size_t idx = it->second;
  const uint64_t last = domain_.back();
  domain_[idx] = last;
  domain_index_[last] = idx;
  domain_.pop_back();
  domain_index_.erase(it);
  owners_.erase(physical);
}

Result<VolatileAgent::FileId> VolatileAgent::AdoptFile(const UserId& user,
                                                       HiddenFile file) {
  // Reject overlapping disclosures: a block already registered means the
  // same file (or a corrupted one) was disclosed twice.
  auto taken = [&](uint64_t b) { return owners_.find(b) != owners_.end(); };
  if (taken(file.fak.header_location)) {
    return Status::AlreadyExists("header block already disclosed");
  }
  for (uint64_t b : file.indirect_locs) {
    if (taken(b)) return Status::AlreadyExists("tree block already disclosed");
  }
  for (uint64_t b : file.block_ptrs) {
    if (taken(b)) return Status::AlreadyExists("data block already disclosed");
  }

  const FileId id = next_id_++;
  file.agent_tag = id;
  auto holder = std::make_unique<OpenFile>();
  holder->file = std::move(file);
  holder->user = user;
  const HiddenFile& f = holder->file;
  files_.emplace(id, std::move(holder));
  user_files_[user].push_back(id);

  AddToDomain(f.fak.header_location, {id, BlockKind::kHeader, 0});
  for (uint64_t i = 0; i < f.indirect_locs.size(); ++i) {
    AddToDomain(f.indirect_locs[i], {id, BlockKind::kTree, i});
  }
  for (uint64_t i = 0; i < f.block_ptrs.size(); ++i) {
    AddToDomain(f.block_ptrs[i], {id, BlockKind::kData, i});
  }
  return id;
}

Result<VolatileAgent::FileId> VolatileAgent::DiscloseHiddenFile(
    const UserId& user, const FileAccessKey& fak) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(HiddenFile file, core_->LoadFile(fak));
  file.is_dummy = false;
  return AdoptFile(user, std::move(file));
}

Result<VolatileAgent::FileId> VolatileAgent::DiscloseDummyFile(
    const UserId& user, const FileAccessKey& fak) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(HiddenFile file, core_->LoadFile(fak));
  file.is_dummy = true;
  return AdoptFile(user, std::move(file));
}

Result<VolatileAgent::FileId> VolatileAgent::CreateHiddenFile(
    const UserId& user) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  HiddenFile file;
  file.fak = FileAccessKey::Random(core_->drbg(), core_->num_blocks());
  file.fak.header_location = RandomUnownedBlock();
  file.dirty = true;
  STEGHIDE_RETURN_IF_ERROR(core_->StoreFile(file));
  return AdoptFile(user, std::move(file));
}

Result<VolatileAgent::FileId> VolatileAgent::CreateDummyFile(
    const UserId& user, uint64_t num_blocks) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (num_blocks > stegfs::MaxFileBlocks(core_->codec().block_size())) {
    return Status::InvalidArgument(
        "dummy file exceeds the maximum file size; create several");
  }
  HiddenFile file;
  file.is_dummy = true;
  file.fak = FileAccessKey::Random(core_->drbg(), core_->num_blocks());
  file.fak.header_location = RandomUnownedBlock();

  // Reserve the header eagerly so content placement cannot collide with
  // it. A temporary owner entry keeps RandomUnownedBlock honest while the
  // rest of the file is being placed; AdoptFile re-registers everything.
  std::vector<uint64_t> placed;
  auto reserve = [&](uint64_t b) {
    owners_[b] = OwnerInfo{};
    placed.push_back(b);
  };
  auto unreserve_all = [&] {
    for (uint64_t b : placed) owners_.erase(b);
    placed.clear();
  };
  reserve(file.fak.header_location);

  file.block_ptrs.reserve(num_blocks);
  for (uint64_t i = 0; i < num_blocks; ++i) {
    const uint64_t b = RandomUnownedBlock();
    reserve(b);
    // Fresh randomness; dummy content is never interpreted.
    const Status st = core_->RandomizeBlock(b);
    if (!st.ok()) {
      unreserve_all();
      return st;
    }
    file.block_ptrs.push_back(b);
  }
  file.file_size = num_blocks * core_->payload_size();

  const uint64_t tree_needed = HiddenFile::IndirectNeeded(
      num_blocks, core_->codec().block_size());
  for (uint64_t i = 0; i < tree_needed; ++i) {
    const uint64_t b = RandomUnownedBlock();
    reserve(b);
    file.indirect_locs.push_back(b);
  }

  const Status st = core_->StoreFile(file);
  unreserve_all();
  STEGHIDE_RETURN_IF_ERROR(st);
  return AdoptFile(user, std::move(file));
}

Result<HiddenFile*> VolatileAgent::FirstDummyFileOf(const UserId& user) {
  const auto it = user_files_.find(user);
  if (it != user_files_.end()) {
    // First dummy file with spare pointer capacity, so absorption can
    // never push a file past the representable maximum.
    const uint64_t cap = stegfs::MaxFileBlocks(core_->codec().block_size());
    for (FileId id : it->second) {
      OpenFile& of = *files_.at(id);
      if (of.file.is_dummy && of.file.num_data_blocks() < cap) {
        return &of.file;
      }
    }
  }
  return Status::FailedPrecondition("user '" + user +
                                    "' has no dummy file with capacity");
}

void VolatileAgent::DetachFromDummyFile(uint64_t physical) {
  const auto it = owners_.find(physical);
  assert(it != owners_.end() && it->second.kind == BlockKind::kData);
  OpenFile& df = *files_.at(it->second.file_id);
  assert(df.file.is_dummy);
  HiddenFile& f = df.file;
  const uint64_t j = it->second.index;
  const uint64_t last = f.block_ptrs.back();
  if (last != physical) {
    f.block_ptrs[j] = last;
    owners_.at(last).index = j;
  }
  f.block_ptrs.pop_back();
  f.file_size = f.num_data_blocks() * core_->payload_size();
  f.dirty = true;
  owners_.erase(it);
  --dummy_count_;
  // The block stays in the domain; the caller registers its new owner.
}

Status VolatileAgent::AbsorbIntoDummyFile(const UserId& user,
                                          uint64_t physical) {
  STEGHIDE_ASSIGN_OR_RETURN(HiddenFile * df, FirstDummyFileOf(user));
  assert(owners_.find(physical) == owners_.end());
  owners_[physical] =
      OwnerInfo{df->agent_tag, BlockKind::kData, df->num_data_blocks()};
  df->block_ptrs.push_back(physical);
  df->file_size = df->num_data_blocks() * core_->payload_size();
  df->dirty = true;
  ++dummy_count_;
  return Status::OK();
}

Status VolatileAgent::DummyUpdate(uint64_t physical) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const auto it = owners_.find(physical);
  if (it == owners_.end()) {
    return Status::Internal("dummy update outside disclosed domain");
  }
  const OpenFile& of = *files_.at(it->second.file_id);

  Bytes& block = dummy_block_scratch_;
  STEGHIDE_RETURN_IF_ERROR(core_->ReadRaw(physical, block));
  if (it->second.kind == BlockKind::kData && of.file.is_dummy) {
    // Unkeyed dummy content: a rewrite with fresh randomness is the
    // IV-refresh equivalent (the read keeps the 2-I/O pattern of §4.1.3).
    core_->codec().Randomize(core_->drbg(), block.data());
  } else {
    const Bytes& key = it->second.kind == BlockKind::kData
                           ? of.file.fak.content_key
                           : of.file.fak.header_key;
    STEGHIDE_ASSIGN_OR_RETURN(const crypto::CbcCipher* cipher,
                              core_->CipherFor(key));
    STEGHIDE_RETURN_IF_ERROR(core_->codec().RefreshBlocks(
        *cipher, core_->drbg(), block.data(), 1, &refresh_scratch_));
  }
  return core_->WriteRaw(physical, block);
}

void VolatileAgent::OnRelocate(HiddenFile& file, uint64_t logical,
                               uint64_t from, uint64_t to) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // `to` was a dummy block owned by some disclosed dummy file; that file
  // adopts the vacated `from` in its place, so the dummy pool keeps its
  // size and every block keeps an owner.
  const auto it = owners_.find(to);
  assert(it != owners_.end() && it->second.kind == BlockKind::kData);
  const OwnerInfo dummy_owner = it->second;
  OpenFile& df = *files_.at(dummy_owner.file_id);
  assert(df.file.is_dummy);
  df.file.block_ptrs[dummy_owner.index] = from;
  df.file.dirty = true;
  owners_[from] = dummy_owner;
  owners_[to] = OwnerInfo{file.agent_tag, BlockKind::kData, logical};
}

void VolatileAgent::OnClaim(HiddenFile& file, uint64_t physical) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  DetachFromDummyFile(physical);
  owners_[physical] = OwnerInfo{file.agent_tag, BlockKind::kData,
                                file.num_data_blocks() - 1};
}

void VolatileAgent::OnClaimTree(HiddenFile& file, uint64_t physical) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  DetachFromDummyFile(physical);
  // The caller records the slot in file.indirect_locs; the index here is
  // fixed up by Flush before it matters.
  owners_[physical] = OwnerInfo{file.agent_tag, BlockKind::kTree, 0};
}

Result<Bytes> VolatileAgent::Read(FileId id, uint64_t offset, size_t n) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(OpenFile * of, Lookup(id));
  return ReadBytes(*core_, of->file, offset, n);
}

Status VolatileAgent::Write(FileId id, uint64_t offset, const uint8_t* data,
                            size_t n) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(OpenFile * of, Lookup(id));
  if (of->file.is_dummy) {
    return Status::InvalidArgument("cannot write user data to a dummy file");
  }
  return WriteBytes(*core_, engine_, of->file, offset, data, n);
}

Status VolatileAgent::Truncate(FileId id, uint64_t new_size) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(OpenFile * of, Lookup(id));
  std::vector<uint64_t> released;
  STEGHIDE_RETURN_IF_ERROR(
      TruncateBytes(*core_, of->file, new_size, &released));
  for (uint64_t b : released) {
    owners_.erase(b);
    STEGHIDE_RETURN_IF_ERROR(AbsorbIntoDummyFile(of->user, b));
  }
  return Status::OK();
}

Status VolatileAgent::Flush(FileId id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(OpenFile * of, Lookup(id));
  HiddenFile& f = of->file;

  const bool can_relocate_tree =
      !f.is_dummy && FirstDummyFileOf(of->user).ok();
  if (can_relocate_tree) {
    // Hand the old tree blocks to the user's dummy file and claim fresh
    // uniformly random homes, as for data relocations.
    for (uint64_t old : f.indirect_locs) {
      owners_.erase(old);
      STEGHIDE_RETURN_IF_ERROR(AbsorbIntoDummyFile(of->user, old));
    }
    f.indirect_locs.clear();
  }

  // Size the tree. Claims may detach blocks from this very file when it is
  // a dummy (shrinking block_ptrs), so recompute the requirement each
  // round until it stabilises.
  for (;;) {
    const uint64_t needed = HiddenFile::IndirectNeeded(
        f.num_data_blocks(), core_->codec().block_size());
    if (f.indirect_locs.size() == needed) break;
    if (f.indirect_locs.size() < needed) {
      STEGHIDE_ASSIGN_OR_RETURN(const uint64_t b, engine_.ClaimDummyBlock(f));
      f.indirect_locs.push_back(b);
    } else {
      const uint64_t extra = f.indirect_locs.back();
      f.indirect_locs.pop_back();
      owners_.erase(extra);
      STEGHIDE_RETURN_IF_ERROR(AbsorbIntoDummyFile(of->user, extra));
    }
  }
  // Fix up tree indices in the owner map.
  for (uint64_t i = 0; i < f.indirect_locs.size(); ++i) {
    owners_[f.indirect_locs[i]] =
        OwnerInfo{f.agent_tag, BlockKind::kTree, i};
  }
  return core_->StoreFile(f);
}

Status VolatileAgent::DeleteFile(FileId id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(OpenFile * of, Lookup(id));
  HiddenFile& f = of->file;
  const UserId user = of->user;
  if (!f.is_dummy) {
    // The user needs a dummy file to absorb the released blocks; check
    // before mutating anything so failure leaves the agent consistent.
    STEGHIDE_RETURN_IF_ERROR(FirstDummyFileOf(user).status());
  } else {
    // Deleting a dummy file requires another dummy file to absorb it.
    // (Deleting the last dummy file would leave the domain with no
    // relocation targets.)
    bool has_other = false;
    for (FileId other : user_files_[user]) {
      if (other != id && files_.at(other)->file.is_dummy) has_other = true;
    }
    if (!has_other) {
      return Status::FailedPrecondition(
          "cannot delete the user's last dummy file");
    }
  }

  // Scrub the header so the FAK no longer opens anything.
  STEGHIDE_RETURN_IF_ERROR(core_->RandomizeBlock(f.fak.header_location));

  std::vector<uint64_t> blocks;
  blocks.push_back(f.fak.header_location);
  blocks.insert(blocks.end(), f.indirect_locs.begin(), f.indirect_locs.end());
  blocks.insert(blocks.end(), f.block_ptrs.begin(), f.block_ptrs.end());

  // Remove this file before re-homing its blocks, so IsDummy() during
  // re-registration reflects the new owner, not the dying file.
  for (uint64_t b : blocks) RemoveFromDomain(b);
  auto& list = user_files_[user];
  list.erase(std::find(list.begin(), list.end(), id));
  files_.erase(id);

  for (uint64_t b : blocks) {
    STEGHIDE_RETURN_IF_ERROR(AbsorbIntoDummyFile(user, b));
    // AbsorbIntoDummyFile sets the owner; restore domain membership.
    const OwnerInfo owner = owners_[b];
    owners_.erase(b);
    --dummy_count_;  // AddToDomain will re-increment
    AddToDomain(b, owner);
  }
  return Status::OK();
}

Status VolatileAgent::Logout(const UserId& user) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const auto it = user_files_.find(user);
  if (it == user_files_.end()) return Status::NotFound("unknown user");

  // Flush everything first: relocations may have dirtied this user's
  // dummy files on behalf of other users' updates.
  for (FileId id : it->second) {
    if (files_.at(id)->file.dirty) STEGHIDE_RETURN_IF_ERROR(Flush(id));
  }
  for (FileId id : it->second) {
    const HiddenFile& f = files_.at(id)->file;
    RemoveFromDomain(f.fak.header_location);
    for (uint64_t b : f.indirect_locs) RemoveFromDomain(b);
    for (uint64_t b : f.block_ptrs) RemoveFromDomain(b);
    files_.erase(id);
  }
  user_files_.erase(it);
  return Status::OK();
}

Result<FileAccessKey> VolatileAgent::GetFak(FileId id) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(const OpenFile* of, Lookup(id));
  return of->file.fak;
}

Result<const HiddenFile*> VolatileAgent::InspectFile(FileId id) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(const OpenFile* of, Lookup(id));
  return &of->file;
}

Result<uint64_t> VolatileAgent::FileSize(FileId id) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  STEGHIDE_ASSIGN_OR_RETURN(const OpenFile* of, Lookup(id));
  return of->file.file_size;
}

Status VolatileAgent::IdleDummyUpdates(uint64_t count) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (uint64_t i = 0; i < count; ++i) {
    STEGHIDE_RETURN_IF_ERROR(engine_.DummyUpdate());
  }
  return Status::OK();
}

}  // namespace steghide::agent
