#ifndef STEGHIDE_OBLIVIOUS_REORDER_JOB_H_
#define STEGHIDE_OBLIVIOUS_REORDER_JOB_H_

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/cbc.h"
#include "crypto/drbg.h"
#include "oblivious/hash_index.h"
#include "oblivious/merge_sort.h"
#include "stegfs/block_codec.h"
#include "storage/block_device.h"
#include "util/result.h"

namespace steghide::oblivious {

/// One resumable level re-order — the §5.1.2 dump + oblivious shuffle as
/// a state machine advanced in bounded Step(budget_blocks) increments.
/// It is the store's only re-order engine: the deamortized schedule
/// interleaves steps with serving and builds into a level's shadow
/// region, the blocking schedule drains a whole chain of re-orders inside
/// the op that triggered it and writes in place (dst_base == the level's
/// base).
///
/// The job runs an immutable *snapshot* of its inputs, taken by the store
/// when the re-order was triggered: the ascending live-slot sweep of its
/// input levels (device inputs) plus the flush set (in-memory inputs),
/// already de-duplicated with the priority in-memory > source level >
/// target level. Because the snapshot is fixed, later serving activity —
/// reads re-buffering records, hidden updates, removals — cannot change
/// which blocks the job touches: the job issues exactly the ascending
/// input reads and sequential destination writes of a re-order run in one
/// go, merely interleaved with serving. Both sequences are
/// data-independent, which is why the interleaving leaves the per-level
/// touch multiset of the schedule unchanged (pinned by
/// tests/oblivious_incremental_test.cc). Removals that race the job are
/// reconciled by the store with tombstones at install time.
///
/// The snapshot is borrowed, not owned: the store plans every re-order of
/// a chain into storage it keeps across chains, and one job object runs
/// them one after another (Begin() re-arms it), so neither the plan nor
/// the run allocates once their buffers have grown.
///
/// Each input's random sort tag is drawn from `tags` as the job feeds it
/// to the sorter, not at snapshot time. `tags` is the store's generator,
/// which the sorter's run spills also draw their IVs from, so feed-time
/// draws keep tags and IVs in the order of a re-order run in one go,
/// whatever the step sizes. The tags of inputs that no spill separates are
/// drawn with one Generate(): the same stream bytes as one draw per input.
///
/// Phases:
///   kBuildRuns — add the memory inputs (the sorter copies each payload
///                into its pending run), then read device-input chunks
///                (vectored, never past the sorter's next run spill) and
///                add each chunk sealed, so the sorter opens it straight
///                into the pending run (ExternalMergeSorter::AddSealed);
///                full runs spill to scratch sequentially.
///   kMerge     — the sorter's chunked multi-way merge into dst_base.
///   kDone      — slot order available via order(); the store performs
///                the install (level metadata is never touched from here).
///
/// Thread safety: driven inside store operations, on the store's owner
/// thread (storage/thread_check.h). Begin() claims the borrowed sorter
/// (Reset()), which must not be shared until the job is done.
class ReorderJob {
 public:
  struct DeviceInput {
    uint64_t block = 0;  // absolute device position of the sealed record
    RecordId id = 0;
  };
  struct MemoryInput {
    RecordId id = 0;
    /// payload_size() bytes, borrowed: the caller keeps them alive and
    /// unchanged until the job has added every memory input.
    const uint8_t* payload = nullptr;
  };
  struct Inputs {
    /// Ascending live-slot sweep order (source level then target level).
    std::vector<DeviceInput> device;
    /// The flush set (agent buffer snapshot); read cost-free.
    std::vector<MemoryInput> memory;

    uint64_t size() const { return device.size() + memory.size(); }
    void clear() {
      device.clear();
      memory.clear();
    }
  };
  enum class Phase { kBuildRuns, kMerge, kDone };

  /// Binds the engine; Begin() arms it for a re-order.
  ReorderJob(storage::BlockDevice* device, const stegfs::BlockCodec* codec,
             const crypto::CbcCipher* cipher, crypto::HashDrbg* tags,
             ExternalMergeSorter* sorter);

  ReorderJob(const ReorderJob&) = delete;
  ReorderJob& operator=(const ReorderJob&) = delete;

  /// Arms the job for a re-order of `inputs` (borrowed; must outlive the
  /// run) into [dst_base, dst_base + inputs->size()) for level
  /// `target_level`, and claims the sorter. A job without inputs is done
  /// at once, with an empty order.
  void Begin(size_t target_level, uint64_t dst_base, const Inputs* inputs);

  /// Advances by roughly `budget_blocks` device block I/Os. Granularity
  /// is one vectored chunk (input read, run spill, merge refill or
  /// output flush), so a step may overshoot by up to one chunk/run;
  /// `consumed` (optional) reports the true count. At least one block of
  /// progress is made per call until done.
  Status Step(uint64_t budget_blocks, uint64_t* consumed = nullptr);

  Phase phase() const { return phase_; }
  bool done() const { return phase_ == Phase::kDone; }
  size_t target_level() const { return target_level_; }
  uint64_t dst_base() const { return dst_base_; }

  /// Device-I/O estimate for the remaining work, for self-pacing.
  uint64_t remaining_blocks() const;
  /// The same estimate for a re-order of `inputs` not begun yet.
  static uint64_t PlannedBlocks(const Inputs& inputs) {
    // Each input costs ~1 read (device inputs) + 1 run write, then the
    // merge re-reads and writes everything once more.
    return 2 * inputs.device.size() + inputs.memory.size() +
           2 * inputs.size();
  }

  /// Record ids in final slot order, once done(); valid until the next
  /// Begin().
  std::span<const RecordId> order() const { return sorter_->order(); }

  /// Device I/O issued by the current re-order (input reads + sorter runs
  /// and merge traffic), split read/write for the store's counters.
  uint64_t reads() const { return input_reads_ + sorter_->stats().reads; }
  uint64_t writes() const { return sorter_->stats().writes; }

 private:
  /// How many device inputs one vectored read covers at most.
  static constexpr uint64_t kInputChunkBlocks = 48;

  Status StepBuildRuns(uint64_t budget_blocks, uint64_t& used);
  /// Draws `n` sort tags into tags_scratch_ with one generator call.
  void DrawTags(size_t n);

  storage::BlockDevice* device_;
  const stegfs::BlockCodec* codec_;
  const crypto::CbcCipher* cipher_;
  crypto::HashDrbg* tags_;
  ExternalMergeSorter* sorter_;
  const Inputs* inputs_ = nullptr;
  size_t target_level_ = 0;
  uint64_t dst_base_ = 0;
  Phase phase_ = Phase::kDone;

  size_t next_memory_ = 0;  // next memory input to feed
  size_t next_device_ = 0;  // next device input to read
  uint64_t input_reads_ = 0;

  // Vectored input staging, reused across re-orders: block ids, sealed
  // images, sort tags and record ids of one chunk.
  std::vector<uint64_t> ids_;
  Bytes read_scratch_;
  std::vector<uint64_t> tags_scratch_;
  std::vector<uint64_t> labels_scratch_;
};

}  // namespace steghide::oblivious

#endif  // STEGHIDE_OBLIVIOUS_REORDER_JOB_H_
