#include "oblivious/merge_sort.h"

#include <algorithm>
#include <cstring>
#include <functional>

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
  run_count_ = 0;
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
  heap_.clear();
  out_chunk_.clear();
  order_.clear();
}

void ExternalMergeSorter::ReserveSlots(uint64_t slots) {
  const size_t ps = codec_->payload_size();
  // One allocation of a whole run on first use. Only adds after a failed
  // spill (the run then holds run_blocks_ items or more) grow it further.
  if (arena_.size() < slots * ps) {
    arena_.resize(std::max(slots, run_blocks_) * ps);
  }
}

Status ExternalMergeSorter::Push(uint64_t tag, uint64_t label) {
  pending_.push_back(Key{tag, label, pending_.size()});
  ++item_count_;
  if (pending_.size() >= run_blocks_) STEGHIDE_RETURN_IF_ERROR(SpillRun());
  return Status::OK();
}

Status ExternalMergeSorter::AddInMemory(const uint8_t* payload, uint64_t tag,
                                        uint64_t label) {
  if (merging_) {
    return Status::FailedPrecondition("sorter is already merging");
  }
  ReserveSlots(pending_.size() + 1);
  std::memcpy(Slot(pending_.size()), payload, codec_->payload_size());
  return Push(tag, label);
}

Status ExternalMergeSorter::AddInMemory(const Bytes& payload, uint64_t tag,
                                        uint64_t label) {
  if (payload.size() != codec_->payload_size()) {
    return Status::InvalidArgument("sorter payload size mismatch");
  }
  return AddInMemory(payload.data(), tag, label);
}

Status ExternalMergeSorter::AddSealed(const uint8_t* blocks,
                                      std::span<const uint64_t> tags,
                                      std::span<const uint64_t> labels) {
  if (merging_) {
    return Status::FailedPrecondition("sorter is already merging");
  }
  const size_t n = tags.size();
  if (labels.size() != n) {
    return Status::InvalidArgument("sealed add tag/label count mismatch");
  }
  if (n > std::max<uint64_t>(1, run_room())) {
    return Status::InvalidArgument("sealed add reaches past the next spill");
  }
  ReserveSlots(pending_.size() + n);
  STEGHIDE_RETURN_IF_ERROR(
      codec_->OpenBlocks(*cipher_, blocks, n, Slot(pending_.size())));
  for (size_t i = 0; i < n; ++i) {
    STEGHIDE_RETURN_IF_ERROR(Push(tags[i], labels[i]));
  }
  return Status::OK();
}

Status ExternalMergeSorter::SpillRun() {
  if (pending_.empty()) return Status::OK();
  std::sort(pending_.begin(), pending_.end(),
            [](const Key& a, const Key& b) { return a.tag < b.tag; });
  if (runs_.size() == run_count_) runs_.emplace_back();
  Run& run = runs_[run_count_];
  run.base = scratch_base_ + scratch_used_;
  run.tags.clear();
  run.labels.clear();
  // Seal the whole run from its arena slots, then write it with one
  // vectored request — a sequential sweep of the scratch region. State
  // (scratch_used_, run_count_, pending_) commits only after the write
  // succeeds, so a failed slice of a re-order can be re-driven: the retry
  // re-seals the same items into the same scratch positions.
  const size_t bs = codec_->block_size();
  if (seal_scratch_.size() < pending_.size() * bs) {
    seal_scratch_.resize(pending_.size() * bs);
  }
  ids_.clear();
  batch_in_.clear();
  batch_out_.clear();
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Key& key = pending_[i];
    batch_in_.push_back(Slot(key.slot));
    batch_out_.push_back(seal_scratch_.data() + i * bs);
    ids_.push_back(run.base + i);
    run.tags.push_back(key.tag);
    run.labels.push_back(key.label);
  }
  STEGHIDE_RETURN_IF_ERROR(
      codec_->SealScatter(*cipher_, *drbg_, batch_in_, batch_out_));
  STEGHIDE_RETURN_IF_ERROR(device_->WriteBlocks(ids_, seal_scratch_.data()));
  stats_.writes += ids_.size();
  scratch_used_ += ids_.size();
  ++run_count_;
  pending_.clear();
  return Status::OK();
}

Status ExternalMergeSorter::BeginMerge(uint64_t dst_base) {
  if (merging_) return Status::FailedPrecondition("merge already begun");

  if (run_count_ == 0) {
    // Everything fits in the in-memory run: sort in place and stream the
    // destination writes out in chunks — no scratch traffic.
    merging_ = true;
    dst_base_ = dst_base;
    order_.reserve(item_count_);
    mem_merge_ = true;
    chunk_ = kMinChunkBlocks;
    std::sort(pending_.begin(), pending_.end(),
              [](const Key& a, const Key& b) { return a.tag < b.tag; });
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
  const size_t fanin = run_count_;
  chunk_ = std::max<uint64_t>(kMinChunkBlocks, run_blocks_ / (fanin + 1));
  cursors_.clear();
  cursors_.resize(fanin);
  heap_.clear();
  for (size_t r = 0; r < fanin; ++r) {
    cursors_[r].run = r;
    heap_.push_back(Head{runs_[r].tags[0], r});
  }
  std::make_heap(heap_.begin(), heap_.end(), HeadAfter);
  merge_done_ = item_count_ == 0;
  return Status::OK();
}

void ExternalMergeSorter::DetachOutput(const Bytes& buf) {
  if (buf.empty()) return;
  const size_t ps = codec_->payload_size();
  const std::less<const uint8_t*> before;
  const uint8_t* lo = buf.data();
  const uint8_t* hi = lo + buf.size();
  for (size_t i = 0; i < out_chunk_.size(); ++i) {
    const uint8_t* p = out_chunk_[i];
    if (before(p, lo) || !before(p, hi)) continue;
    // Moving Bytes never moves their storage, so growing held_ keeps
    // earlier copies where out_chunk_ points.
    if (held_.size() <= i) held_.resize(i + 1);
    Bytes& copy = held_[i];
    copy.resize(ps);
    std::memcpy(copy.data(), p, ps);
    out_chunk_[i] = copy.data();
  }
}

Status ExternalMergeSorter::RefillCursor(Cursor& c) {
  const Run& run = runs_[c.run];
  const uint64_t end = std::min<uint64_t>(c.next + chunk_, run.tags.size());
  const size_t n = end - c.next;
  DetachOutput(c.payloads);
  ids_.clear();
  for (uint64_t i = c.next; i < end; ++i) ids_.push_back(run.base + i);
  const size_t bs = codec_->block_size();
  if (read_scratch_.size() < n * bs) read_scratch_.resize(n * bs);
  STEGHIDE_RETURN_IF_ERROR(device_->ReadBlocks(ids_, read_scratch_.data()));
  stats_.reads += n;
  // One batched open for the whole look-ahead chunk, into the cursor's
  // buffer. A failed open leaves chunk_end behind next, so the next step
  // refills again.
  if (c.payloads.empty()) c.payloads.resize(chunk_ * codec_->payload_size());
  STEGHIDE_RETURN_IF_ERROR(
      codec_->OpenBlocks(*cipher_, read_scratch_.data(), n, c.payloads.data()));
  c.chunk_begin = c.next;
  c.chunk_end = end;
  return Status::OK();
}

Status ExternalMergeSorter::FlushOutput() {
  if (out_chunk_.empty()) return Status::OK();
  // out_pos_ advances only after the vectored write succeeds (and
  // out_chunk_ stays intact on failure), so a re-driven MergeStep
  // re-writes the same chunk at the same destination offsets.
  const size_t bs = codec_->block_size();
  if (seal_scratch_.size() < out_chunk_.size() * bs) {
    seal_scratch_.resize(out_chunk_.size() * bs);
  }
  ids_.clear();
  batch_out_.clear();
  for (size_t i = 0; i < out_chunk_.size(); ++i) {
    batch_out_.push_back(seal_scratch_.data() + i * bs);
    ids_.push_back(dst_base_ + out_pos_ + i);
  }
  STEGHIDE_RETURN_IF_ERROR(
      codec_->SealScatter(*cipher_, *drbg_, out_chunk_, batch_out_));
  STEGHIDE_RETURN_IF_ERROR(device_->WriteBlocks(ids_, seal_scratch_.data()));
  stats_.writes += ids_.size();
  out_pos_ += ids_.size();
  out_chunk_.clear();
  return Status::OK();
}

Status ExternalMergeSorter::MergeStep(uint64_t budget_blocks, bool* done,
                                      uint64_t* consumed) {
  if (!merging_) return Status::FailedPrecondition("BeginMerge not called");
  uint64_t used = 0;
  const auto charge = [&](uint64_t blocks) { used += blocks; };
  const size_t ps = codec_->payload_size();

  while (!merge_done_) {
    if (mem_merge_) {
      // Stream the sorted in-memory run to the destination, one sealed
      // vectored chunk at a time, straight from the arena.
      const uint64_t left = pending_.size() - mem_next_;
      uint64_t n = std::min<uint64_t>(chunk_, left);
      if (used > 0 && used + n > budget_blocks) break;
      for (uint64_t i = 0; i < n; ++i) {
        const Key& key = pending_[mem_next_];
        out_chunk_.push_back(Slot(key.slot));
        order_.push_back(key.label);
        ++mem_next_;
      }
      STEGHIDE_RETURN_IF_ERROR(FlushOutput());
      charge(n);
      merge_done_ = mem_next_ >= pending_.size();
      if (used >= budget_blocks) break;
      continue;
    }

    if (heap_.empty()) {
      const uint64_t tail = out_chunk_.size();
      STEGHIDE_RETURN_IF_ERROR(FlushOutput());
      charge(tail);
      merge_done_ = true;
      cursors_.clear();  // releases the look-ahead buffers
      break;
    }

    // The cursor with the smallest pending tag (lowest run on ties).
    Cursor& best = cursors_[heap_.front().run];
    const Run& run = runs_[best.run];
    if (best.next >= best.chunk_end) {
      const uint64_t need =
          std::min<uint64_t>(chunk_, run.tags.size() - best.next);
      // A refill is a whole-chunk read; stop at the budget boundary
      // unless nothing has been done yet (progress guarantee).
      if (used > 0 && used + need > budget_blocks) break;
      STEGHIDE_RETURN_IF_ERROR(RefillCursor(best));
      charge(need);
    }
    order_.push_back(run.labels[best.next]);
    out_chunk_.push_back(best.payloads.data() +
                         (best.next - best.chunk_begin) * ps);
    ++best.next;
    std::pop_heap(heap_.begin(), heap_.end(), HeadAfter);
    if (best.next < run.tags.size()) {
      heap_.back().tag = run.tags[best.next];
      std::push_heap(heap_.begin(), heap_.end(), HeadAfter);
    } else {
      heap_.pop_back();
    }
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

}  // namespace steghide::oblivious
