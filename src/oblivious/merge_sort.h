#ifndef STEGHIDE_OBLIVIOUS_MERGE_SORT_H_
#define STEGHIDE_OBLIVIOUS_MERGE_SORT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/cbc.h"
#include "crypto/drbg.h"
#include "stegfs/block_codec.h"
#include "storage/block_device.h"
#include "util/result.h"

namespace steghide::oblivious {

/// External merge sort over sealed blocks, the re-order primitive of
/// §5.1.2 ("we apply the external merge sort algorithm").
///
/// Usage: feed payloads with AddInMemory() (or sealed images with
/// AddSealed(), which opens them straight into the pending run), each
/// with the caller's 64-bit sort tag (a random tag yields a
/// uniformly random concealed permutation). The sorter buffers up to
/// `run_blocks` payloads in memory (the agent's buffer), spilling sorted,
/// re-encrypted runs to the scratch region. BeginMerge() then arms a
/// single chunked multi-way pass into the destination region,
/// MergeStep(budget) advances it by a bounded number of device I/Os — so
/// a deamortized re-order can interleave merge chunks with serving, and a
/// blocking one runs it to completion — and order() lists the
/// caller-supplied labels in final order. Reset() then recycles the
/// sorter for the next re-order.
///
/// Memory: the pending run lives in one payload arena of `run_blocks`
/// payload slots, allocated at the first add and kept across Reset(), so
/// adds, spills and the in-memory merge copy each payload once (into its
/// slot) and allocate nothing per item; the runs' tag and label tables and
/// the final order keep their storage across Reset() too. The external
/// merge gives each run's cursor one decrypted look-ahead buffer of a
/// merge chunk, refilled in place and released when the merge finishes;
/// the output chunk holds pointers into the look-ahead buffers or the
/// arena and seals from them.
///
/// I/O pattern matters more than the sort itself here: run formation and
/// the merge read/write chunks sequentially, which is why the paper's
/// sorting overhead, despite costing the most I/Os, takes under 30 % of
/// the time (Figure 12(b)). Chunked resumption preserves that: each
/// MergeStep issues whole run/output chunks, never per-block I/O.
class ExternalMergeSorter {
 public:
  /// Device blocks the sorter has read and written since the last
  /// Reset(). Plain counters: the sorter is driven and read only under
  /// its owner's lock (the oblivious store's).
  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
  };

  /// None of the pointers are owned; all must outlive the sorter.
  /// `scratch_base` is the first block of the scratch (sort) partition;
  /// `run_blocks` is the in-memory run size in blocks (the agent buffer
  /// size B of the paper).
  ExternalMergeSorter(storage::BlockDevice* device,
                      const stegfs::BlockCodec* codec,
                      const crypto::CbcCipher* cipher, crypto::HashDrbg* drbg,
                      uint64_t scratch_base, uint64_t run_blocks);

  /// Adds an item whose payload is in memory (a flush-set record),
  /// attaching `tag` (sort key) and `label` (opaque, returned in final
  /// order). Copies the payload into the pending run's next slot; no
  /// device read. A full run spills to scratch.
  Status AddInMemory(const Bytes& payload, uint64_t tag, uint64_t label);
  /// Same, from a raw payload_size()-byte pointer.
  Status AddInMemory(const uint8_t* payload, uint64_t tag, uint64_t label);

  /// Opens tags.size() sealed block images, consecutive at `blocks`,
  /// straight into the pending run's next free slots and adds them in
  /// order, image i under tags[i] and labels[i]: AddInMemory() without
  /// the copy. The count may not exceed max(1, run_room()), so only the
  /// last add can spill. A failed open adds nothing; a failed spill
  /// leaves every image added, as a failed AddInMemory() spill does
  /// (item_count() tells the two apart).
  Status AddSealed(const uint8_t* blocks, std::span<const uint64_t> tags,
                   std::span<const uint64_t> labels);

  /// Items the pending run still takes before it spills: a caller that
  /// reads its inputs in chunks stops each chunk here, so every input read
  /// precedes the spill it feeds. Zero only after a failed spill, which
  /// the next add re-drives.
  uint64_t run_room() const {
    return pending_.size() < run_blocks_ ? run_blocks_ - pending_.size() : 0;
  }

  // ---- Resumable merge phase ---------------------------------------------

  /// Ends the add phase: spills the pending tail (or, when everything
  /// fits in one run, sorts it in place for a scratch-free sweep) and
  /// arms MergeStep() toward [dst_base, dst_base + n).
  Status BeginMerge(uint64_t dst_base);

  /// Advances the merge by roughly `budget_blocks` device block I/Os.
  /// Chunk granularity: a step finishes the run-refill or output-flush it
  /// starts, so it may overshoot by up to one chunk; `consumed` (optional)
  /// reports the true count and at least one block of progress is made
  /// per call. Sets *done when the merge is complete.
  Status MergeStep(uint64_t budget_blocks, bool* done,
                   uint64_t* consumed = nullptr);

  /// Labels in final slot order; complete once MergeStep reported done,
  /// valid until Reset().
  std::span<const uint64_t> order() const { return order_; }

  /// Device-I/O estimate for the remaining merge work (for self-pacing
  /// callers). Zero once done.
  uint64_t merge_remaining_blocks() const;

  /// Recycles the sorter for the next re-order: clears items, runs and
  /// merge state and zeroes stats(), but keeps the payload arena, the run
  /// tables, the order and the read and seal staging buffers — re-orders
  /// are hot enough that reallocating them per call shows up in the
  /// profile.
  void Reset();

  uint64_t item_count() const { return item_count_; }
  const Stats& stats() const { return stats_; }

 private:
  /// A pending-run item; its payload sits in arena slot `slot`. The
  /// pending run always occupies slots 0 .. pending_.size() - 1, in
  /// some order (a spill sorts the keys, not the payloads).
  struct Key {
    uint64_t tag;
    uint64_t label;
    uint64_t slot;
  };
  struct Run {
    uint64_t base;  // first scratch block
    std::vector<uint64_t> tags;
    std::vector<uint64_t> labels;
  };
  /// Chunked look-ahead into one run during the merge.
  struct Cursor {
    size_t run = 0;            // index into runs_
    uint64_t next = 0;         // next item index within the run
    uint64_t chunk_begin = 0;  // run index of the first buffered payload
    uint64_t chunk_end = 0;    // one past the last buffered payload
    Bytes payloads;            // decrypted look-ahead, chunk_ slots
  };
  /// Merge-heap entry: the next tag of run `run`. The heap pops the
  /// smallest (tag, run), so equal tags leave the lowest run first.
  struct Head {
    uint64_t tag;
    size_t run;
  };
  /// Heap order: true when `a` pops after `b`.
  static bool HeadAfter(const Head& a, const Head& b) {
    return a.tag != b.tag ? a.tag > b.tag : a.run > b.run;
  }

  uint8_t* Slot(uint64_t slot) {
    return arena_.data() + slot * codec_->payload_size();
  }
  /// Grows the arena to at least `slots` payload slots.
  void ReserveSlots(uint64_t slots);
  /// Appends the key of the payload already in slot pending_.size().
  Status Push(uint64_t tag, uint64_t label);
  Status SpillRun();
  Status RefillCursor(Cursor& c);
  /// Gives every unflushed output payload that still points into `buf`
  /// a copy of its own, before a refill overwrites `buf`.
  void DetachOutput(const Bytes& buf);
  Status FlushOutput();

  storage::BlockDevice* device_;
  const stegfs::BlockCodec* codec_;
  const crypto::CbcCipher* cipher_;
  crypto::HashDrbg* drbg_;
  uint64_t scratch_base_;
  uint64_t scratch_used_ = 0;
  uint64_t run_blocks_;
  std::vector<Key> pending_;
  Bytes arena_;              // pending-run payload slots
  /// runs_[0, run_count_) are this re-order's spilled runs; later entries
  /// keep their tables' storage for the next spills.
  std::vector<Run> runs_;
  size_t run_count_ = 0;
  uint64_t item_count_ = 0;
  Stats stats_;

  // Merge-phase state (valid while merging_).
  bool merging_ = false;
  bool merge_done_ = false;
  bool mem_merge_ = false;    // single-run case: pending_ sorted in place
  uint64_t dst_base_ = 0;
  uint64_t out_pos_ = 0;      // destination blocks written so far
  uint64_t chunk_ = 0;        // per-run / output chunk size in blocks
  uint64_t mem_next_ = 0;     // next pending_ index (mem_merge_ case)
  std::vector<Cursor> cursors_;
  std::vector<Head> heap_;    // runs with items left, min-heap on (tag, run)
  /// Payloads of the output chunk awaiting its flush, in order.
  std::vector<const uint8_t*> out_chunk_;
  /// held_[i]: the copy out_chunk_[i] points to once DetachOutput moved
  /// it out of a look-ahead buffer; allocated on first use and kept.
  std::vector<Bytes> held_;
  std::vector<uint64_t> order_;
  // Staging reused across calls: sealed images for spills and flushes,
  // sealed images read by refills, block ids, and the pointer tables of
  // the codec's scattered batch seal.
  Bytes seal_scratch_;
  Bytes read_scratch_;
  std::vector<uint64_t> ids_;
  std::vector<const uint8_t*> batch_in_;
  std::vector<uint8_t*> batch_out_;
};

}  // namespace steghide::oblivious

#endif  // STEGHIDE_OBLIVIOUS_MERGE_SORT_H_
