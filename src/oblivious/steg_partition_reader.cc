#include "oblivious/steg_partition_reader.h"

#include <algorithm>
#include <unordered_map>

namespace steghide::oblivious {

StegPartitionReader::StegPartitionReader(stegfs::StegFsCore* core,
                                         ObliviousStore* store)
    : core_(core), store_(store) {}

Status StegPartitionReader::ReadBlock(const stegfs::HiddenFile& file,
                                      uint64_t logical, uint8_t* out_payload) {
  return ReadBlockBatch(file, std::span<const uint64_t>(&logical, 1),
                        out_payload);
}

Status StegPartitionReader::ReadBlockBatch(const stegfs::HiddenFile& file,
                                           std::span<const uint64_t> logicals,
                                           uint8_t* out_payloads) {
  std::vector<BlockRef> refs(logicals.size());
  for (size_t i = 0; i < logicals.size(); ++i) {
    refs[i] = BlockRef{&file, logicals[i]};
  }
  return ReadRefBatch(refs, out_payloads);
}

Status StegPartitionReader::ReadRefBatch(std::span<const BlockRef> refs,
                                         uint8_t* out_payloads) {
  const size_t ps = core_->payload_size();
  for (const BlockRef& ref : refs) {
    if (ref.file == nullptr) {
      return Status::InvalidArgument("null file in block ref");
    }
    if (ref.logical >= ref.file->num_data_blocks()) {
      return Status::OutOfRange("read beyond end of file");
    }
  }

  // Epoch consistency: a batch spans several store critical sections
  // (Contains() per id, one MultiInsert, one MultiRead per chunk), and a
  // deamortized re-order chain may install a new level permutation
  // between them. That interleaving is safe by construction — presence
  // is install-invariant (installs move records between levels, never in
  // or out of the store), each store group plans and executes against a
  // single epoch under the store lock, and a record read mid-chain is
  // simply found wherever its current epoch placed it (old level, new
  // level, or the flush snapshot served as a ghost). The epoch stamp
  // below records mid-batch flips so tests can pin that reads kept
  // flowing across installs rather than being fenced out by them.
  const uint64_t epoch_at_start = store_->reorder_epoch();

  // Classify: cached blocks go to one oblivious group, distinct misses
  // to one fill pass. A block repeated among the misses is fetched once
  // (§5.1.1's at-most-once rule) and copied to its duplicates. Record
  // ids are unique across files (agent_tag is per open file), so one
  // id-keyed pass covers an arbitrary file mix.
  std::vector<const stegfs::HiddenFile*> miss_files;
  std::vector<uint64_t> miss_logicals;
  std::unordered_map<RecordId, size_t> miss_pos;
  cached_at_.clear();
  cached_ids_.clear();
  for (size_t i = 0; i < refs.size(); ++i) {
    const RecordId id = MakeRecordId(*refs[i].file, refs[i].logical);
    if (store_->Contains(id)) {
      cells_.cache_hits.Increment();
      cached_at_.push_back(i);
      cached_ids_.push_back(id);
    } else if (miss_pos.find(id) == miss_pos.end()) {
      miss_pos.emplace(id, miss_logicals.size());
      miss_files.push_back(refs[i].file);
      miss_logicals.push_back(refs[i].logical);
    }
  }

  if (!miss_logicals.empty()) {
    // Figure 8(a): randomise each fetch by interleaving decoy re-reads of
    // already-fetched blocks. The DRBG draws happen miss by miss with the
    // fetched set growing in between — exactly the sequential draw
    // sequence, on which the uniformity argument depends — while the
    // decoy I/O itself is issued as vectored reads afterwards, so the
    // observable stream keeps its distribution and the layers below see
    // whole batches.
    const uint64_t m = core_->num_blocks();
    decoys_.clear();
    // This batch's fetches join the set S only after every I/O below
    // succeeds, so a failed batch cannot corrupt the fetched set; the
    // draws still see S grow between misses via the virtual
    // concatenation fetched_ ∥ new_fetches.
    new_fetches_.clear();
    for (size_t mi = 0; mi < miss_logicals.size(); ++mi) {
      for (;;) {
        const uint64_t fetched_count = fetched_.size() + new_fetches_.size();
        const uint64_t x = core_->drbg().Uniform(m);
        if (x >= fetched_count) break;
        const uint64_t pick = core_->drbg().Uniform(fetched_count);
        decoys_.push_back(pick < fetched_.size()
                              ? fetched_[pick]
                              : new_fetches_[pick - fetched_.size()]);
        cells_.decoy_reads.Increment();
      }
      new_fetches_.push_back(miss_files[mi]->block_ptrs[miss_logicals[mi]]);
    }
    if (!decoys_.empty()) {
      // Chunked so a late-stage fetch (expected decoy count approaches
      // the partition size as S → M) never materialises a volume-sized
      // buffer.
      constexpr size_t kDecoyChunk = 256;
      for (size_t i = 0; i < decoys_.size(); i += kDecoyChunk) {
        const size_t n = std::min(kDecoyChunk, decoys_.size() - i);
        STEGHIDE_RETURN_IF_ERROR(core_->ReadRawBatch(
            std::span<const uint64_t>(decoys_).subspan(i, n), decoy_scratch_));
      }
    }

    // One vectored fetch per file covering its distinct misses (one call
    // total in the single-file case), then one batched fill of the store
    // (deferred flush: a k-record fill costs at most one merge). The
    // per-file payloads scatter back into miss order so the fill and the
    // duplicate copies below stay file-agnostic.
    fetch_scratch_.resize(miss_logicals.size() * ps);
    miss_consumed_.assign(miss_logicals.size(), 0);
    for (size_t start = 0; start < miss_logicals.size(); ++start) {
      if (miss_consumed_[start]) continue;
      const stegfs::HiddenFile* file = miss_files[start];
      file_logicals_.clear();
      file_positions_.clear();
      for (size_t mi = start; mi < miss_logicals.size(); ++mi) {
        if (miss_consumed_[mi] || miss_files[mi] != file) continue;
        miss_consumed_[mi] = 1;
        file_logicals_.push_back(miss_logicals[mi]);
        file_positions_.push_back(mi);
      }
      file_scratch_.resize(file_logicals_.size() * ps);
      STEGHIDE_RETURN_IF_ERROR(core_->ReadFileBlockSet(
          *file, file_logicals_, file_scratch_.data()));
      for (size_t j = 0; j < file_positions_.size(); ++j) {
        std::copy_n(file_scratch_.data() + j * ps, ps,
                    fetch_scratch_.data() + file_positions_[j] * ps);
      }
    }

    miss_ids_.resize(miss_logicals.size());
    for (const auto& [id, pos] : miss_pos) miss_ids_[pos] = id;
    STEGHIDE_RETURN_IF_ERROR(
        store_->MultiInsert(miss_ids_, fetch_scratch_.data()));
    fetched_.insert(fetched_.end(), new_fetches_.begin(), new_fetches_.end());
    cells_.real_fetches.Add(new_fetches_.size());

    // Scatter fetched payloads to every position they serve.
    for (size_t i = 0; i < refs.size(); ++i) {
      const auto it = miss_pos.find(MakeRecordId(*refs[i].file, refs[i].logical));
      if (it == miss_pos.end()) continue;
      std::copy_n(fetch_scratch_.data() + it->second * ps, ps,
                  out_payloads + i * ps);
    }
  }

  if (!cached_ids_.empty() && cached_ids_.size() == refs.size()) {
    // Every block cached, the steady state: group position i is ref i, so
    // the store decrypts straight into the caller's buffer.
    STEGHIDE_RETURN_IF_ERROR(store_->MultiRead(cached_ids_, out_payloads));
  } else if (!cached_ids_.empty()) {
    cached_scratch_.resize(cached_ids_.size() * ps);
    STEGHIDE_RETURN_IF_ERROR(
        store_->MultiRead(cached_ids_, cached_scratch_.data()));
    for (size_t c = 0; c < cached_at_.size(); ++c) {
      std::copy_n(cached_scratch_.data() + c * ps, ps,
                  out_payloads + cached_at_[c] * ps);
    }
  }
  cells_.reorder_epoch_flips.Add(store_->reorder_epoch() - epoch_at_start);
  return Status::OK();
}

Status StegPartitionReader::DummyStegRead() {
  const uint64_t b3 = core_->drbg().Uniform(core_->num_blocks());
  STEGHIDE_RETURN_IF_ERROR(core_->ReadRaw(b3, decoy_scratch_));
  cells_.dummy_reads.Increment();
  return Status::OK();
}

Status StegPartitionReader::IdleDummyOp() {
  // An idle window is exactly where deamortized re-order work belongs:
  // advance any pending chain by one slice (budget 0 = the store's
  // configured reorder_step_blocks) before spending the window's dummy
  // traffic. No-op when nothing is pending or deamortization is off.
  STEGHIDE_RETURN_IF_ERROR(store_->StepReorder(0));
  STEGHIDE_RETURN_IF_ERROR(store_->DummyRead());
  return DummyStegRead();
}

void StegPartitionReader::RegisterMetrics(obs::Registry* registry,
                                          const std::string& prefix) {
  registration_ = obs::Registration(registry);
  obs::RegisterRows(kStatRows, cells_, prefix, &registration_);
}

}  // namespace steghide::oblivious
