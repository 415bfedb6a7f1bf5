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

Status ReorderJob::Feed(const uint8_t* payload, RecordId id) {
  return sorter_->AddInMemory(payload, tags_->NextUint64(), id);
}

Status ReorderJob::StepBuildRuns(uint64_t budget_blocks, uint64_t& used) {
  // The flush set first: it carries the newest copies, so it goes in
  // ahead of the device sweep (in-memory > source > target). Memory adds
  // cost no reads, but a full run spills sequentially through the
  // sorter, which we charge.
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
    STEGHIDE_RETURN_IF_ERROR(Feed(in.payload.data(), in.id));
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
    std::vector<uint64_t> ids;
    ids.reserve(take);
    for (uint64_t i = 0; i < take; ++i) {
      ids.push_back(inputs_.device[next_device_ + i].block);
    }
    STEGHIDE_RETURN_IF_ERROR(device_->ReadBlocks(ids, read_scratch_));
    input_reads_ += take;
    used += take;
    // Decrypt the whole chunk in one multi-chain batch (side-effect
    // free, so a re-driven step simply decrypts its fresh read again),
    // then feed the sorter from the contiguous plaintext.
    payload_scratch_.resize(take * codec_->payload_size());
    STEGHIDE_RETURN_IF_ERROR(codec_->OpenBlocks(
        *cipher_, read_scratch_.data(), take, payload_scratch_.data()));
    for (uint64_t i = 0; i < take; ++i) {
      const DeviceInput& in = inputs_.device[next_device_];
      // Consumed before the fallible add — see the memory loop above.
      // A re-driven step then re-reads any not-yet-added tail of this
      // chunk through a fresh vectored read, never re-adds this item.
      ++next_device_;
      const uint64_t before = sorter_io();
      STEGHIDE_RETURN_IF_ERROR(
          Feed(payload_scratch_.data() + i * codec_->payload_size(), in.id));
      used += sorter_io() - before;
    }
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
