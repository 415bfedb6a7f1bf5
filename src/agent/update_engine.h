#ifndef STEGHIDE_AGENT_UPDATE_ENGINE_H_
#define STEGHIDE_AGENT_UPDATE_ENGINE_H_

#include <cstdint>
#include <functional>

#include "stegfs/stegfs_core.h"

namespace steghide::agent {

/// The agent-specific knowledge the update algorithm needs: which blocks
/// it may touch (the selection domain), which of them are dummies, and how
/// to account for role changes.
///
/// Construction 1 (non-volatile agent): the domain is the whole volume and
/// dummy-ness comes from the agent's persistent bitmap.
///
/// Construction 2 (volatile agent): the domain is the union of the blocks
/// of all files disclosed by currently logged-in users, and dummy blocks
/// are the content blocks of disclosed dummy files.
class BlockRegistry {
 public:
  virtual ~BlockRegistry() = default;

  /// Size of the random-selection domain.
  virtual uint64_t DomainSize() const = 0;

  /// Maps a domain index in [0, DomainSize()) to a physical block id.
  virtual uint64_t DomainBlock(uint64_t index) const = 0;

  /// True if `physical` currently holds no real data and may be claimed.
  virtual bool IsDummy(uint64_t physical) const = 0;

  /// Performs one dummy update on `physical`: read the block, decrypt it,
  /// draw a fresh IV, re-encrypt, write it back (2 I/Os). The registry
  /// implements this because only it knows which key governs the block.
  virtual Status DummyUpdate(uint64_t physical) = 0;

  /// Bookkeeping after the engine moved `file`'s data block for logical
  /// index `logical` from `from` to the previously-dummy block `to`. The
  /// engine has already written the data at `to` and updated
  /// file.block_ptrs; the registry flips roles (and, for the volatile
  /// agent, re-points the dummy file that owned `to` at `from`).
  virtual void OnRelocate(stegfs::HiddenFile& file, uint64_t logical,
                          uint64_t from, uint64_t to) = 0;

  /// Bookkeeping after the engine claimed the dummy block `physical` as a
  /// brand-new data block of `file` (append); the engine has already
  /// written the data and pushed the pointer, so the logical index is
  /// file.block_ptrs.size() - 1.
  virtual void OnClaim(stegfs::HiddenFile& file, uint64_t physical) = 0;

  /// Bookkeeping after the engine claimed the dummy block `physical` for
  /// `file`'s header tree (indirect block). Called before the caller
  /// writes the block, so back-to-back claims never hand out the same
  /// block twice.
  virtual void OnClaimTree(stegfs::HiddenFile& file, uint64_t physical) = 0;
};

/// Mutates the decrypted payload of a block in place. Used so that the
/// engine's mandatory read of B1 (the paper charges read+write per
/// iteration) doubles as the read half of a read-modify-write.
using PayloadEditor = std::function<void(uint8_t* payload)>;

/// Counters for the overhead analysis of §4.1.5.
struct UpdateStats {
  uint64_t data_updates = 0;       // user-requested block updates
  uint64_t allocations = 0;        // new blocks claimed
  uint64_t dummy_updates = 0;      // standalone idle dummy updates
  uint64_t loop_iterations = 0;    // total Figure-6 iterations
  uint64_t io_reads = 0;
  uint64_t io_writes = 0;

  /// Mean iterations per data update; §4.1.5 predicts E = N/D.
  double MeanIterations() const {
    const uint64_t ops = data_updates + allocations;
    return ops == 0 ? 0.0
                    : static_cast<double>(loop_iterations) /
                          static_cast<double>(ops);
  }
};

/// The update algorithm of Figure 6, shared by both agent constructions.
///
/// Every user update relocates the target block to a uniformly random
/// position (retrying over data blocks with dummy updates), so the write
/// pattern the attacker observes is exactly the pattern of dummy updates:
/// uniform over the selection domain. Section 4.1.4 proves this perfectly
/// secure under Definition 1.
class UpdateEngine {
 public:
  /// Does not take ownership; both must outlive the engine.
  UpdateEngine(stegfs::StegFsCore* core, BlockRegistry* registry);

  /// Updates logical block `logical` of `file` through `edit`
  /// (read-modify-write). Relocates the block per Figure 6 and marks the
  /// file dirty on relocation.
  Status Update(stegfs::HiddenFile& file, uint64_t logical,
                const PayloadEditor& edit);

  /// Appends a new data block with `payload` to `file`, claiming a
  /// uniformly random dummy block with the same selection loop (so
  /// allocations are indistinguishable from updates). On success the block
  /// is file.block_ptrs.back().
  Status Append(stegfs::HiddenFile& file, const uint8_t* payload);

  /// Claims a uniformly random dummy block *without* binding it to a data
  /// file's content (used for indirect/header-tree blocks; the caller
  /// writes the block). The selection loop still dummy-updates data blocks
  /// it lands on, so the observable pattern is unchanged.
  Result<uint64_t> ClaimDummyBlock(stegfs::HiddenFile& file);

  /// One standalone dummy update on a uniformly random domain block — the
  /// idle-time traffic of §4.1.3.
  Status DummyUpdate();

  const UpdateStats& stats() const { return stats_; }
  void ResetStats() { stats_ = UpdateStats(); }

 private:
  /// Runs the Figure-6 selection loop until a dummy block (or `self`, if
  /// valid) is hit; returns the selected physical block. Dummy-updates any
  /// data blocks drawn along the way. `self` = kNullBlock for allocations.
  Result<uint64_t> SelectTarget(uint64_t self);

  stegfs::StegFsCore* core_;
  BlockRegistry* registry_;
  UpdateStats stats_;
};

}  // namespace steghide::agent

#endif  // STEGHIDE_AGENT_UPDATE_ENGINE_H_
