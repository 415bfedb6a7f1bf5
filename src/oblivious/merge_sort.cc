#include "oblivious/merge_sort.h"

#include <algorithm>
#include <cstring>

namespace steghide::oblivious {

namespace {
// Merge chunk floor, in blocks (192 KB per run at 4 KB blocks): every
// chunk boundary costs a cross-region disk jump (run ↔ run ↔
// destination), so the floor directly divides the re-order's seek count
// — the dominant term once the scan path is batched. At the paper's
// scale B/(fanin+1) is near the floor anyway, and when experiments
// shrink B to keep N/B constant, the agent's real RAM does not shrink
// with it.
constexpr uint64_t kMinChunkBlocks = 48;
}  // namespace

ExternalMergeSorter::ExternalMergeSorter(storage::BlockDevice* device,
                                         const stegfs::BlockCodec* codec,
                                         const crypto::CbcCipher* cipher,
                                         crypto::HashDrbg* drbg,
                                         uint64_t scratch_base,
                                         uint64_t run_blocks)
    : device_(device),
      codec_(codec),
      cipher_(cipher),
      drbg_(drbg),
      scratch_base_(scratch_base),
      run_blocks_(run_blocks == 0 ? 1 : run_blocks) {}

void ExternalMergeSorter::Reset() {
  pending_.clear();
  runs_.clear();
  scratch_used_ = 0;
  item_count_ = 0;
  stats_ = Stats();
  merging_ = false;
  merge_done_ = false;
  mem_merge_ = false;
  dst_base_ = 0;
  out_pos_ = 0;
  chunk_ = 0;
  mem_next_ = 0;
  cursors_.clear();
  out_chunk_.clear();
  order_.clear();
}

Status ExternalMergeSorter::AddInMemory(const uint8_t* payload, uint64_t tag,
                                        uint64_t label) {
  if (merging_) {
    return Status::FailedPrecondition("sorter is already merging");
  }
  pending_.push_back(
      Item{tag, label, Bytes(payload, payload + codec_->payload_size())});
  ++item_count_;
  if (pending_.size() >= run_blocks_) STEGHIDE_RETURN_IF_ERROR(SpillRun());
  return Status::OK();
}

Status ExternalMergeSorter::AddInMemory(const Bytes& payload, uint64_t tag,
                                        uint64_t label) {
  if (merging_) {
    return Status::FailedPrecondition("sorter is already merging");
  }
  if (payload.size() != codec_->payload_size()) {
    return Status::InvalidArgument("sorter payload size mismatch");
  }
  pending_.push_back(Item{tag, label, payload});
  ++item_count_;
  if (pending_.size() >= run_blocks_) STEGHIDE_RETURN_IF_ERROR(SpillRun());
  return Status::OK();
}

Status ExternalMergeSorter::SpillRun() {
  if (pending_.empty()) return Status::OK();
  std::sort(pending_.begin(), pending_.end(),
            [](const Item& a, const Item& b) { return a.tag < b.tag; });
  Run run;
  run.base = scratch_base_ + scratch_used_;
  run.tags.reserve(pending_.size());
  run.labels.reserve(pending_.size());
  // Seal the whole run, then write it with one vectored request — a
  // sequential sweep of the scratch region. State (scratch_used_, runs_,
  // pending_) commits only after the write succeeds, so a failed slice
  // of a re-order can be re-driven: the retry re-seals the same items
  // into the same scratch positions.
  seal_scratch_.resize(pending_.size() * codec_->block_size());
  std::vector<uint64_t> ids;
  ids.reserve(pending_.size());
  batch_in_.clear();
  batch_out_.clear();
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Item& item = pending_[i];
    batch_in_.push_back(item.payload.data());
    batch_out_.push_back(seal_scratch_.data() + i * codec_->block_size());
    ids.push_back(run.base + i);
    run.tags.push_back(item.tag);
    run.labels.push_back(item.label);
  }
  STEGHIDE_RETURN_IF_ERROR(
      codec_->SealScatter(*cipher_, *drbg_, batch_in_, batch_out_));
  STEGHIDE_RETURN_IF_ERROR(device_->WriteBlocks(ids, seal_scratch_.data()));
  stats_.writes += ids.size();
  scratch_used_ += ids.size();
  runs_.push_back(std::move(run));
  pending_.clear();
  return Status::OK();
}

Status ExternalMergeSorter::BeginMerge(uint64_t dst_base) {
  if (merging_) return Status::FailedPrecondition("merge already begun");

  if (runs_.empty()) {
    // Everything fits in the in-memory run: sort in place and stream the
    // destination writes out in chunks — no scratch traffic.
    merging_ = true;
    dst_base_ = dst_base;
    order_.reserve(item_count_);
    mem_merge_ = true;
    chunk_ = kMinChunkBlocks;
    std::sort(pending_.begin(), pending_.end(),
              [](const Item& a, const Item& b) { return a.tag < b.tag; });
    merge_done_ = pending_.empty();
    return Status::OK();
  }

  // Spill the tail so every item lives in some run on scratch, then arm
  // the single chunked multi-way merge. With run size B and level sizes
  // at most N, the fan-in is at most N/B = 2^k runs, so one pass always
  // suffices; per-run read chunks and an output write chunk keep the I/O
  // mostly sequential — the property behind Figure 12(b)'s "sorting is
  // cheap in time". The merge arms only after the spill succeeds, so a
  // failed slice of a re-order can re-drive BeginMerge.
  STEGHIDE_RETURN_IF_ERROR(SpillRun());
  merging_ = true;
  dst_base_ = dst_base;
  order_.reserve(item_count_);
  const size_t fanin = runs_.size();
  chunk_ = std::max<uint64_t>(kMinChunkBlocks, run_blocks_ / (fanin + 1));
  cursors_.clear();
  cursors_.reserve(fanin);
  for (size_t r = 0; r < fanin; ++r) cursors_.push_back(Cursor{r, 0, 0, {}});
  merge_done_ = item_count_ == 0;
  return Status::OK();
}

Status ExternalMergeSorter::RefillCursor(Cursor& c) {
  const Run& run = runs_[c.run];
  c.chunk_begin = c.next;
  const uint64_t end = std::min<uint64_t>(c.next + chunk_, run.tags.size());
  c.chunk_payloads.clear();
  std::vector<uint64_t> ids;
  ids.reserve(end - c.chunk_begin);
  for (uint64_t i = c.chunk_begin; i < end; ++i) {
    ids.push_back(run.base + i);
  }
  Bytes blocks;
  STEGHIDE_RETURN_IF_ERROR(device_->ReadBlocks(ids, blocks));
  stats_.reads += ids.size();
  // One batched open for the whole look-ahead chunk.
  batch_in_.clear();
  batch_out_.clear();
  for (size_t i = 0; i < ids.size(); ++i) {
    c.chunk_payloads.emplace_back(codec_->payload_size());
    batch_in_.push_back(blocks.data() + i * codec_->block_size());
    batch_out_.push_back(c.chunk_payloads.back().data());
  }
  return codec_->OpenScatter(*cipher_, batch_in_, batch_out_);
}

Status ExternalMergeSorter::FlushOutput() {
  if (out_chunk_.empty()) return Status::OK();
  // out_pos_ advances only after the vectored write succeeds (and
  // out_chunk_ stays intact on failure), so a re-driven MergeStep
  // re-writes the same chunk at the same destination offsets.
  seal_scratch_.resize(out_chunk_.size() * codec_->block_size());
  std::vector<uint64_t> ids;
  ids.reserve(out_chunk_.size());
  batch_in_.clear();
  batch_out_.clear();
  for (size_t i = 0; i < out_chunk_.size(); ++i) {
    batch_in_.push_back(out_chunk_[i].data());
    batch_out_.push_back(seal_scratch_.data() + i * codec_->block_size());
    ids.push_back(dst_base_ + out_pos_ + i);
  }
  STEGHIDE_RETURN_IF_ERROR(
      codec_->SealScatter(*cipher_, *drbg_, batch_in_, batch_out_));
  STEGHIDE_RETURN_IF_ERROR(device_->WriteBlocks(ids, seal_scratch_.data()));
  stats_.writes += ids.size();
  out_pos_ += ids.size();
  out_chunk_.clear();
  return Status::OK();
}

Status ExternalMergeSorter::MergeStep(uint64_t budget_blocks, bool* done,
                                      uint64_t* consumed) {
  if (!merging_) return Status::FailedPrecondition("BeginMerge not called");
  uint64_t used = 0;
  const auto charge = [&](uint64_t blocks) { used += blocks; };

  while (!merge_done_) {
    if (mem_merge_) {
      // Stream the sorted in-memory run to the destination, one sealed
      // vectored chunk at a time.
      const uint64_t left = pending_.size() - mem_next_;
      uint64_t n = std::min<uint64_t>(chunk_, left);
      if (used > 0 && used + n > budget_blocks) break;
      for (uint64_t i = 0; i < n; ++i) {
        out_chunk_.push_back(std::move(pending_[mem_next_].payload));
        order_.push_back(pending_[mem_next_].label);
        ++mem_next_;
      }
      STEGHIDE_RETURN_IF_ERROR(FlushOutput());
      charge(n);
      merge_done_ = mem_next_ >= pending_.size();
      if (used >= budget_blocks) break;
      continue;
    }

    // Pick the cursor with the smallest pending tag.
    Cursor* best = nullptr;
    for (Cursor& c : cursors_) {
      if (c.next >= runs_[c.run].tags.size()) continue;
      if (best == nullptr ||
          runs_[c.run].tags[c.next] < runs_[best->run].tags[best->next]) {
        best = &c;
      }
    }
    if (best == nullptr) {
      const uint64_t tail = out_chunk_.size();
      STEGHIDE_RETURN_IF_ERROR(FlushOutput());
      charge(tail);
      merge_done_ = true;
      break;
    }

    if (best->next >= best->chunk_begin + best->chunk_payloads.size() ||
        best->chunk_payloads.empty()) {
      const uint64_t need = std::min<uint64_t>(
          chunk_, runs_[best->run].tags.size() - best->next);
      // A refill is a whole-chunk read; stop at the budget boundary
      // unless nothing has been done yet (progress guarantee).
      if (used > 0 && used + need > budget_blocks) break;
      STEGHIDE_RETURN_IF_ERROR(RefillCursor(*best));
      charge(need);
    }
    order_.push_back(runs_[best->run].labels[best->next]);
    out_chunk_.push_back(
        std::move(best->chunk_payloads[best->next - best->chunk_begin]));
    ++best->next;
    if (out_chunk_.size() >= chunk_) {
      const uint64_t tail = out_chunk_.size();
      if (used > 0 && used + tail > budget_blocks) break;
      STEGHIDE_RETURN_IF_ERROR(FlushOutput());
      charge(tail);
    }
    if (used >= budget_blocks) break;
  }

  if (done) *done = merge_done_;
  if (consumed) *consumed = used;
  return Status::OK();
}

uint64_t ExternalMergeSorter::merge_remaining_blocks() const {
  if (!merging_ || merge_done_) return 0;
  if (mem_merge_) return pending_.size() - mem_next_;
  // Each unemitted item costs ~1 run read + 1 destination write; the
  // buffered output chunk still owes its write.
  const uint64_t emitted = order_.size();
  return 2 * (item_count_ - emitted) + out_chunk_.size();
}

std::vector<uint64_t> ExternalMergeSorter::TakeOrder() {
  std::vector<uint64_t> order = std::move(order_);
  order_.clear();
  return order;
}

}  // namespace steghide::oblivious
