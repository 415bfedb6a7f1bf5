#ifndef STEGHIDE_AGENT_VOLATILE_AGENT_H_
#define STEGHIDE_AGENT_VOLATILE_AGENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "agent/update_engine.h"
#include "stegfs/stegfs_core.h"
#include "storage/thread_check.h"
#include "util/result.h"

namespace steghide::agent {

/// Construction 2 (§4.2) — the volatile agent, "StegHide" in the paper's
/// evaluation (the construction the authors implemented on Linux).
///
/// The agent persists *nothing*. Each hidden file is encrypted under its
/// own FAK components, dummy blocks are organised into per-user dummy
/// files "of approximately the size of data files", and the keys are
/// disclosed to the agent only while their owner is logged in. A coerced
/// administrator has nothing to give up, and a coerced user can surrender
/// dummy files — or real files with a decoy content key — without the
/// adversary being able to tell the difference.
///
/// The update algorithm's selection domain is the union of the blocks of
/// all currently disclosed files; as users log in, the agent discovers
/// more blocks to spread its updates over (§4.2.2).
///
/// Consistency note: block relocation may re-home a vacated block into
/// *any* disclosed dummy file, including another user's. The affected
/// dummy file is marked dirty and flushed no later than its owner's
/// logout, which keeps on-disk headers consistent. Crash-atomicity of
/// flushes is out of scope, as in the paper.
///
/// Thread safety: one owner thread at a time (storage/thread_check.h),
/// in a served system the RequestDispatcher's I/O thread. Each public
/// operation that issues I/O or changes state checks in debug builds
/// that no other thread is inside; the update engine's BlockRegistry
/// callbacks re-enter on that thread and, like the const lookups, check
/// nothing. Pointers handed out by InspectFile() remain valid across map
/// growth (files are heap-anchored) but are invalidated by
/// Logout/DeleteFile of the owning session.
class VolatileAgent : public BlockRegistry {
 public:
  using UserId = std::string;
  using FileId = uint64_t;

  /// `core` must outlive the agent.
  explicit VolatileAgent(stegfs::StegFsCore* core);

  // ---- Sessions and disclosure ------------------------------------------

  /// Discloses an existing hidden file's FAK; the agent loads its header
  /// tree and adds its blocks to the selection domain.
  Result<FileId> DiscloseHiddenFile(const UserId& user,
                                    const stegfs::FileAccessKey& fak);

  /// Discloses a dummy file: same loading, but the agent is told (by the
  /// user — it is recorded nowhere on disk) that the content is
  /// meaningless, so its blocks become relocation targets.
  Result<FileId> DiscloseDummyFile(const UserId& user,
                                   const stegfs::FileAccessKey& fak);

  /// Flushes and forgets everything the user disclosed. After logout the
  /// agent retains no knowledge of those files.
  Status Logout(const UserId& user);

  // ---- File lifecycle ----------------------------------------------------

  /// Creates an empty hidden file for `user` with a fresh random FAK.
  Result<FileId> CreateHiddenFile(const UserId& user);

  /// Creates a dummy file spanning `num_blocks` content blocks of fresh
  /// randomness. Users provision dummy files alongside their real files
  /// (§4.2.1); the resulting dummy blocks are what keeps the volume's
  /// effective utilisation below 1 and the update overhead near N/D.
  Result<FileId> CreateDummyFile(const UserId& user, uint64_t num_blocks);

  /// Releases the file's blocks into the user's first dummy file and
  /// scrubs the header.
  Status DeleteFile(FileId id);

  // ---- I/O ----------------------------------------------------------------

  Result<Bytes> Read(FileId id, uint64_t offset, size_t n);
  Status Write(FileId id, uint64_t offset, const uint8_t* data, size_t n);
  Status Write(FileId id, uint64_t offset, const Bytes& data) {
    return Write(id, offset, data.data(), data.size());
  }
  Status Truncate(FileId id, uint64_t new_size);

  /// Writes the header tree; indirect blocks are relocated when the
  /// owning user has a dummy file to absorb the vacated ones, otherwise
  /// rewritten in place. Dummy files always flush in place.
  Status Flush(FileId id);

  /// Issues `count` idle-time dummy updates over the disclosed domain.
  Status IdleDummyUpdates(uint64_t count);

  // ---- Introspection -------------------------------------------------------

  Result<stegfs::FileAccessKey> GetFak(FileId id) const;
  Result<uint64_t> FileSize(FileId id) const;

  /// Read-only view of the in-memory file image (block map, keys,
  /// agent_tag). Used by the oblivious read path (ObliviousAgent /
  /// StegPartitionReader), which needs the block map to fetch from the
  /// StegFS partition. The pointer is invalidated by Logout/DeleteFile.
  Result<const stegfs::HiddenFile*> InspectFile(FileId id) const;
  /// Dummy (claimable) blocks currently in the domain.
  uint64_t dummy_block_count() const { return dummy_count_; }
  /// Snapshot of the update-engine counters.
  UpdateStats update_stats() const { return engine_.stats(); }
  void ResetUpdateStats() {
    STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "VolatileAgent");
    engine_.ResetStats();
  }
  stegfs::StegFsCore& core() { return *core_; }

  // ---- BlockRegistry --------------------------------------------------------
  // Invoked by the update engine from within Write/Flush/IdleDummyUpdates,
  // on the owner thread.

  uint64_t DomainSize() const override { return domain_.size(); }
  uint64_t DomainBlock(uint64_t index) const override {
    return domain_[index];
  }
  bool IsDummy(uint64_t physical) const override;
  Status DummyUpdate(uint64_t physical) override;
  void OnRelocate(stegfs::HiddenFile& file, uint64_t logical, uint64_t from,
                  uint64_t to) override;
  void OnClaim(stegfs::HiddenFile& file, uint64_t physical) override;
  void OnClaimTree(stegfs::HiddenFile& file, uint64_t physical) override;

 private:
  enum class BlockKind : uint8_t { kHeader, kTree, kData };
  struct OwnerInfo {
    FileId file_id = 0;
    BlockKind kind = BlockKind::kData;
    uint64_t index = 0;  // logical index for kData; tree index for kTree
  };
  struct OpenFile {
    stegfs::HiddenFile file;
    UserId user;
  };

  Result<OpenFile*> Lookup(FileId id);
  Result<const OpenFile*> Lookup(FileId id) const;

  /// Draws a uniformly random block that no disclosed file owns. May, with
  /// the probability the paper accepts for undisclosed data, collide with
  /// a logged-out user's block — the documented StegFS trade-off.
  uint64_t RandomUnownedBlock();

  void AddToDomain(uint64_t physical, const OwnerInfo& owner);
  void RemoveFromDomain(uint64_t physical);

  /// Registers a loaded file's blocks in domain/owner maps.
  Result<FileId> AdoptFile(const UserId& user, stegfs::HiddenFile file);

  /// Detaches `physical` from the dummy file that currently owns it
  /// (swap-remove of the pointer). Precondition: IsDummy(physical).
  void DetachFromDummyFile(uint64_t physical);

  /// Appends `physical` to the user's first dummy file (bookkeeping
  /// only); fails if the user has none.
  Status AbsorbIntoDummyFile(const UserId& user, uint64_t physical);

  Result<stegfs::HiddenFile*> FirstDummyFileOf(const UserId& user);

  /// Checks the one-owner rule. Compound operations (Logout → Flush)
  /// re-enter the public surface on the same thread, which it allows.
  storage::SerialCallChecker serial_check_;
  stegfs::StegFsCore* core_;
  UpdateEngine engine_;
  /// Only ever searched by id, never walked in order.
  std::unordered_map<FileId, std::unique_ptr<OpenFile>> files_;
  std::map<UserId, std::vector<FileId>> user_files_;
  std::unordered_map<uint64_t, OwnerInfo> owners_;
  std::vector<uint64_t> domain_;
  std::unordered_map<uint64_t, size_t> domain_index_;
  uint64_t dummy_count_ = 0;
  FileId next_id_ = 1;
  /// DummyUpdate staging reused across calls: the block image and the
  /// codec's transient refresh plaintext.
  Bytes dummy_block_scratch_;
  Bytes refresh_scratch_;
};

}  // namespace steghide::agent

#endif  // STEGHIDE_AGENT_VOLATILE_AGENT_H_
