#ifndef STEGHIDE_AGENT_NONVOLATILE_AGENT_H_
#define STEGHIDE_AGENT_NONVOLATILE_AGENT_H_

#include <cstdint>
#include <map>
#include <memory>

#include "agent/update_engine.h"
#include "stegfs/bitmap.h"
#include "stegfs/stegfs_core.h"
#include "storage/thread_check.h"
#include "util/result.h"

namespace steghide::agent {

/// Construction 1 (§4.1) — the non-volatile agent, "StegHide*" in the
/// paper's evaluation.
///
/// The agent persistently holds two secrets: the FAK of the (virtual)
/// dummy file that owns every abandoned block, and the single secret key
/// under which every storage block is encrypted. We realise the first as a
/// data-vs-dummy bitmap (the membership of the paper's dummy file, which
/// is exactly what a non-volatile agent would persist) and the second as
/// `agent_key`.
///
/// The selection domain of the update algorithm is the entire volume, so
/// data updates are uniform over all N blocks and the scheme is perfectly
/// secure against update analysis (§4.1.4).
///
/// Thread safety: as for VolatileAgent, one owner thread at a time
/// (storage/thread_check.h). File ops and bitmap restores check it in
/// debug builds; update-engine callbacks and const lookups check nothing.
class NonVolatileAgent : public BlockRegistry {
 public:
  struct Options {
    /// The agent's persistent block-encryption key (16/24/32 bytes). If
    /// empty, a random key is drawn from the core's DRBG.
    Bytes agent_key;
  };

  /// Handle for an open file.
  using FileId = uint64_t;

  /// `core` must outlive the agent and must be freshly formatted, unless
  /// RestoreBitmap() is used to resume an existing volume.
  NonVolatileAgent(stegfs::StegFsCore* core, const Options& options);

  // ---- File operations -------------------------------------------------

  /// Creates an empty hidden file at a fresh random header location and
  /// returns its handle. The credential for re-opening later is GetFak().
  Result<FileId> CreateFile();

  /// Opens the file whose header sits at fak.header_location.
  Result<FileId> OpenFile(const stegfs::FileAccessKey& fak);

  Result<Bytes> Read(FileId id, uint64_t offset, size_t n);
  Status Write(FileId id, uint64_t offset, const uint8_t* data, size_t n);
  Status Write(FileId id, uint64_t offset, const Bytes& data) {
    return Write(id, offset, data.data(), data.size());
  }

  /// Shrinks the file; released blocks rejoin the dummy pool.
  Status Truncate(FileId id, uint64_t new_size);

  /// Writes the header tree. Indirect blocks are relocated to fresh
  /// uniformly random positions on every flush, so tree writes follow the
  /// same distribution as data writes; only the header block itself is
  /// rewritten in place (its location must stay derivable from the FAK).
  Status Flush(FileId id);

  /// Releases every block of the file back to the dummy pool and scrubs
  /// the header block with fresh randomness.
  Status DeleteFile(FileId id);

  /// The credential to reopen this file later.
  Result<stegfs::FileAccessKey> GetFak(FileId id) const;

  Result<uint64_t> FileSize(FileId id) const;

  /// Issues `count` idle-time dummy updates (§4.1.3).
  Status IdleDummyUpdates(uint64_t count);

  // ---- Introspection ---------------------------------------------------

  double utilization() const { return bitmap_.utilization(); }
  /// Copy of the data/dummy bitmap.
  stegfs::BlockBitmap bitmap() const { return bitmap_; }
  /// Snapshot of the update-engine counters.
  UpdateStats update_stats() const { return engine_.stats(); }
  void ResetUpdateStats() {
    STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "NonVolatileAgent");
    engine_.ResetStats();
  }
  stegfs::StegFsCore& core() { return *core_; }

  /// Persistence of the agent's non-volatile secret state (the bitmap).
  /// Callers encrypt the serialization under the agent key before writing
  /// it to an untrusted medium.
  Bytes SerializeBitmap() const { return bitmap_.Serialize(); }
  Status RestoreBitmap(const Bytes& data);

  // ---- BlockRegistry ---------------------------------------------------

  uint64_t DomainSize() const override { return core_->num_blocks(); }
  uint64_t DomainBlock(uint64_t index) const override { return index; }
  bool IsDummy(uint64_t physical) const override {
    return bitmap_.IsDummy(physical);
  }
  Status DummyUpdate(uint64_t physical) override;
  void OnRelocate(stegfs::HiddenFile& file, uint64_t logical, uint64_t from,
                  uint64_t to) override;
  void OnClaim(stegfs::HiddenFile& file, uint64_t physical) override;
  void OnClaimTree(stegfs::HiddenFile& file, uint64_t physical) override;

 private:
  Result<stegfs::HiddenFile*> Lookup(FileId id);
  Result<const stegfs::HiddenFile*> Lookup(FileId id) const;

  /// Checks the one-owner rule.
  storage::SerialCallChecker serial_check_;
  stegfs::StegFsCore* core_;
  Bytes agent_key_;
  stegfs::BlockBitmap bitmap_;
  UpdateEngine engine_;
  std::map<FileId, std::unique_ptr<stegfs::HiddenFile>> open_files_;
  FileId next_id_ = 1;
  /// DummyUpdate staging reused across calls: the block image and the
  /// codec's transient refresh plaintext — the §4.1.3 hot loop allocates
  /// nothing per update.
  Bytes dummy_block_scratch_;
  Bytes refresh_scratch_;
};

}  // namespace steghide::agent

#endif  // STEGHIDE_AGENT_NONVOLATILE_AGENT_H_
