#include "oblivious/reorder_job.h"

#include <algorithm>

namespace steghide::oblivious {

ReorderJob::ReorderJob(storage::BlockDevice* device,
                       const stegfs::BlockCodec* codec,
                       const crypto::CbcCipher* cipher,
                       crypto::HashDrbg* tags, ExternalMergeSorter* sorter,
                       size_t target_level, uint64_t dst_base, Inputs inputs)
    : device_(device),
      codec_(codec),
      cipher_(cipher),
      tags_(tags),
      sorter_(sorter),
      target_level_(target_level),
      dst_base_(dst_base),
      inputs_(std::move(inputs)) {
  if (record_count() == 0) phase_ = Phase::kDone;
}

Status ReorderJob::StepBuildRuns(uint64_t budget_blocks, uint64_t& used) {
  // The flush set first: it carries the newest copies, so it goes in
  // ahead of the device sweep (in-memory > source > target). Memory adds
  // cost no reads, but a full run spills sequentially through the
  // sorter, which we charge. Each input's sort tag is drawn as it is
  // added.
  const auto sorter_io = [&] {
    return sorter_->stats().reads + sorter_->stats().writes;
  };
  while (next_memory_ < inputs_.memory.size()) {
    if (used >= budget_blocks) return Status::OK();
    const MemoryInput& in = inputs_.memory[next_memory_];
    // Consume the input before the fallible add: on a spill error the
    // item already sits in the sorter's pending run (which the retry
    // re-spills), so re-adding it would duplicate the record.
    ++next_memory_;
    const uint64_t before = sorter_io();
    STEGHIDE_RETURN_IF_ERROR(
        sorter_->AddInMemory(in.payload.data(), tags_->NextUint64(), in.id));
    used += sorter_io() - before;
  }

  while (next_device_ < inputs_.device.size()) {
    if (used >= budget_blocks) return Status::OK();
    // One vectored chunk of the ascending live-slot sweep, ending at the
    // next run spill at the latest: every input read then precedes the
    // spill it feeds, the device order of a per-block sweep.
    const uint64_t left = inputs_.device.size() - next_device_;
    const uint64_t take = std::min<uint64_t>(
        {kInputChunkBlocks, left, std::max<uint64_t>(1, budget_blocks - used),
         std::max<uint64_t>(1, sorter_->run_room())});
    ids_.clear();
    for (uint64_t i = 0; i < take; ++i) {
      ids_.push_back(inputs_.device[next_device_ + i].block);
    }
    const size_t bytes = take * codec_->block_size();
    if (read_scratch_.size() < bytes) read_scratch_.resize(bytes);
    STEGHIDE_RETURN_IF_ERROR(device_->ReadBlocks(ids_, read_scratch_.data()));
    input_reads_ += take;
    used += take;
    // Draw the chunk's tags up front: only its last add can spill (take
    // never exceeds max(1, run_room())), so the tag draws and the spill's
    // IVs keep the order of per-item adds.
    chunk_tags_.clear();
    chunk_labels_.clear();
    for (uint64_t i = 0; i < take; ++i) {
      chunk_tags_.push_back(tags_->NextUint64());
      chunk_labels_.push_back(inputs_.device[next_device_ + i].id);
    }
    // Decrypt the whole chunk in one multi-chain batch straight into the
    // sorter's pending run, then add it. Consume exactly what the sorter
    // took, before returning its error: a failed open takes nothing (a
    // re-driven step reads and opens the chunk again), a failed spill has
    // taken the whole chunk (the retry re-spills it), as in the memory
    // loop above.
    const uint64_t items = sorter_->item_count();
    const uint64_t before = sorter_io();
    const Status added =
        sorter_->AddSealed(read_scratch_.data(), chunk_tags_, chunk_labels_);
    next_device_ += sorter_->item_count() - items;
    used += sorter_io() - before;
    STEGHIDE_RETURN_IF_ERROR(added);
  }

  STEGHIDE_RETURN_IF_ERROR(sorter_->BeginMerge(dst_base_));
  phase_ = Phase::kMerge;
  return Status::OK();
}

Status ReorderJob::Step(uint64_t budget_blocks, uint64_t* consumed) {
  if (!started_ && phase_ != Phase::kDone) {
    // The sorter is shared by every job of a chain; claim it only when
    // this job actually starts — jobs are all constructed at the flush
    // trigger but run strictly one at a time.
    sorter_->Reset();
    started_ = true;
  }
  uint64_t used = 0;
  budget_blocks = std::max<uint64_t>(1, budget_blocks);
  while (used < budget_blocks && phase_ != Phase::kDone) {
    if (phase_ == Phase::kBuildRuns) {
      STEGHIDE_RETURN_IF_ERROR(StepBuildRuns(budget_blocks, used));
      continue;
    }
    bool done = false;
    uint64_t merged = 0;
    STEGHIDE_RETURN_IF_ERROR(
        sorter_->MergeStep(budget_blocks - used, &done, &merged));
    used += merged;
    if (done) phase_ = Phase::kDone;
  }
  if (consumed != nullptr) *consumed = used;
  return Status::OK();
}

uint64_t ReorderJob::remaining_blocks() const {
  switch (phase_) {
    case Phase::kDone:
      return 0;
    case Phase::kMerge:
      return sorter_->merge_remaining_blocks();
    case Phase::kBuildRuns: {
      // Unread inputs each cost ~1 read + 1 run write, then the merge
      // re-reads and writes everything once more.
      const uint64_t device_left = inputs_.device.size() - next_device_;
      const uint64_t memory_left = inputs_.memory.size() - next_memory_;
      return 2 * device_left + memory_left + 2 * record_count();
    }
  }
  return 0;
}

}  // namespace steghide::oblivious
