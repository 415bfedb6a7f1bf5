#include "oblivious/reorder_job.h"

#include <algorithm>

namespace steghide::oblivious {

ReorderJob::ReorderJob(storage::BlockDevice* device,
                       const stegfs::BlockCodec* codec,
                       const crypto::CbcCipher* cipher,
                       crypto::HashDrbg* tags, ExternalMergeSorter* sorter)
    : device_(device),
      codec_(codec),
      cipher_(cipher),
      tags_(tags),
      sorter_(sorter) {}

void ReorderJob::Begin(size_t target_level, uint64_t dst_base,
                       const Inputs* inputs) {
  inputs_ = inputs;
  target_level_ = target_level;
  dst_base_ = dst_base;
  next_memory_ = 0;
  next_device_ = 0;
  input_reads_ = 0;
  // The sorter is shared by every re-order of a chain, which run strictly
  // one at a time; resetting it also empties the order a job without
  // inputs installs.
  sorter_->Reset();
  phase_ = inputs->size() == 0 ? Phase::kDone : Phase::kBuildRuns;
}

void ReorderJob::DrawTags(size_t n) {
  // One draw of 8n stream bytes is the n NextUint64() draws it replaces,
  // each tag read big-endian from its 8 bytes.
  tags_scratch_.resize(n);
  auto* bytes = reinterpret_cast<uint8_t*>(tags_scratch_.data());
  tags_->Generate(bytes, n * sizeof(uint64_t));
  for (size_t i = 0; i < n; ++i) {
    tags_scratch_[i] = LoadBigEndian64(bytes + i * sizeof(uint64_t));
  }
}

Status ReorderJob::StepBuildRuns(uint64_t budget_blocks, uint64_t& used) {
  // The flush set first: it carries the newest copies, so it goes in
  // ahead of the device sweep (in-memory > source > target). Memory adds
  // cost no reads, but a full run spills sequentially through the
  // sorter, which we charge.
  const auto sorter_io = [&] {
    return sorter_->stats().reads + sorter_->stats().writes;
  };
  const std::vector<MemoryInput>& memory = inputs_->memory;
  while (next_memory_ < memory.size()) {
    if (used >= budget_blocks) return Status::OK();
    // The inputs up to the next run spill: only the last of them can
    // spill, so their tags drawn up front keep the order of per-item
    // draws and the spill's IVs.
    const size_t take = std::min<uint64_t>(
        memory.size() - next_memory_, std::max<uint64_t>(1, sorter_->run_room()));
    DrawTags(take);
    const uint64_t before = sorter_io();
    Status added = Status::OK();
    for (size_t i = 0; i < take && added.ok(); ++i) {
      const MemoryInput& in = memory[next_memory_];
      // Consume the input before the fallible add: on a spill error the
      // item already sits in the sorter's pending run (which the retry
      // re-spills), so re-adding it would duplicate the record.
      ++next_memory_;
      added = sorter_->AddInMemory(in.payload, tags_scratch_[i], in.id);
    }
    used += sorter_io() - before;
    STEGHIDE_RETURN_IF_ERROR(added);
  }

  const std::vector<DeviceInput>& device = inputs_->device;
  while (next_device_ < device.size()) {
    if (used >= budget_blocks) return Status::OK();
    // One vectored chunk of the ascending live-slot sweep, ending at the
    // next run spill at the latest: every input read then precedes the
    // spill it feeds, the device order of a per-block sweep.
    const uint64_t left = device.size() - next_device_;
    const uint64_t take = std::min<uint64_t>(
        {kInputChunkBlocks, left, std::max<uint64_t>(1, budget_blocks - used),
         std::max<uint64_t>(1, sorter_->run_room())});
    ids_.clear();
    labels_scratch_.clear();
    for (uint64_t i = 0; i < take; ++i) {
      ids_.push_back(device[next_device_ + i].block);
      labels_scratch_.push_back(device[next_device_ + i].id);
    }
    const size_t bytes = take * codec_->block_size();
    if (read_scratch_.size() < bytes) read_scratch_.resize(bytes);
    STEGHIDE_RETURN_IF_ERROR(device_->ReadBlocks(ids_, read_scratch_.data()));
    input_reads_ += take;
    used += take;
    // Draw the chunk's tags up front: only its last add can spill (take
    // never exceeds max(1, run_room())), so the tag draws and the spill's
    // IVs keep the order of per-item adds.
    DrawTags(take);
    // Decrypt the whole chunk in one multi-chain batch straight into the
    // sorter's pending run, then add it. Consume exactly what the sorter
    // took, before returning its error: a failed open takes nothing (a
    // re-driven step reads and opens the chunk again), a failed spill has
    // taken the whole chunk (the retry re-spills it), as in the memory
    // loop above.
    const uint64_t items = sorter_->item_count();
    const uint64_t before = sorter_io();
    const Status added = sorter_->AddSealed(read_scratch_.data(),
                                            tags_scratch_, labels_scratch_);
    next_device_ += sorter_->item_count() - items;
    used += sorter_io() - before;
    STEGHIDE_RETURN_IF_ERROR(added);
  }

  STEGHIDE_RETURN_IF_ERROR(sorter_->BeginMerge(dst_base_));
  phase_ = Phase::kMerge;
  return Status::OK();
}

Status ReorderJob::Step(uint64_t budget_blocks, uint64_t* consumed) {
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
      // As PlannedBlocks(), for the inputs not fed yet.
      const uint64_t device_left = inputs_->device.size() - next_device_;
      const uint64_t memory_left = inputs_->memory.size() - next_memory_;
      return 2 * device_left + memory_left + 2 * inputs_->size();
    }
  }
  return 0;
}

}  // namespace steghide::oblivious
