#include "agent/oblivious_agent.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>

namespace steghide::agent {

using oblivious::RecordId;
using oblivious::StegPartitionReader;
using stegfs::HiddenFile;

ObliviousAgent::ObliviousAgent(
    stegfs::StegFsCore* core,
    std::unique_ptr<oblivious::ObliviousStore> store)
    : core_(core), agent_(core), store_(std::move(store)) {
  reader_ = std::make_unique<StegPartitionReader>(core_, store_.get());
}

Result<std::unique_ptr<ObliviousAgent>> ObliviousAgent::Create(
    stegfs::StegFsCore* core, storage::BlockDevice* cache_device,
    const oblivious::ObliviousStoreOptions& store_options) {
  STEGHIDE_ASSIGN_OR_RETURN(auto store, oblivious::ObliviousStore::Create(
                                            cache_device, store_options));
  auto agent = std::unique_ptr<ObliviousAgent>(
      new ObliviousAgent(core, std::move(store)));
  // The agent rides the store's observability wiring: its group spans go
  // on an "agent" track of the same log, and the reader's counters join
  // the same registry.
  if (store_options.trace != nullptr) {
    agent->trace_ = store_options.trace;
    agent->trace_track_ = store_options.trace->RegisterTrack("agent");
  }
  if (store_options.registry != nullptr) {
    agent->reader_->RegisterMetrics(store_options.registry, "reader");
  }
  return agent;
}

Result<Bytes> ObliviousAgent::Read(FileId id, uint64_t offset, size_t n) {
  const ReadRequest request{id, offset, n};
  std::lock_guard<std::mutex> lock(io_mu_);
  STEGHIDE_ASSIGN_OR_RETURN(
      auto out, ReadGroupImpl(std::span<const ReadRequest>(&request, 1)));
  return std::move(out.front());
}

Result<std::vector<Bytes>> ObliviousAgent::ReadGroup(
    std::span<const ReadRequest> requests) {
  std::lock_guard<std::mutex> lock(io_mu_);
  return ReadGroupImpl(requests);
}

Result<std::vector<Bytes>> ObliviousAgent::ReadGroupImpl(
    std::span<const ReadRequest> requests) {
  obs::ScopedSpan span(trace_, "agent.read_group", trace_track_,
                       {{"n", static_cast<int64_t>(requests.size())}});
  const size_t payload = core_->payload_size();

  // One InspectFile per distinct file, in request order; the pointers
  // stay valid for the whole group (no session mutation happens on this
  // path). group_files_ stays sorted by file id for the lookups below.
  const auto file_at = [this](FileId id) {
    return std::lower_bound(
        group_files_.begin(), group_files_.end(), id,
        [](const std::pair<FileId, const HiddenFile*>& e, FileId key) {
          return e.first < key;
        });
  };
  group_files_.clear();
  for (const ReadRequest& request : requests) {
    const auto it = file_at(request.file);
    if (it != group_files_.end() && it->first == request.file) continue;
    STEGHIDE_ASSIGN_OR_RETURN(const HiddenFile* file,
                              agent_.InspectFile(request.file));
    group_files_.insert(it, {request.file, file});
  }

  // Union of logical blocks covered by the clamped ranges across all
  // files, ascending per file — one miss-fill/oblivious-group pass
  // serves all of them.
  std::vector<StegPartitionReader::BlockRef>& refs = group_refs_;
  refs.clear();
  for (const ReadRequest& request : requests) {
    const HiddenFile* file = file_at(request.file)->second;
    if (request.offset >= file->file_size || request.length == 0) continue;
    const uint64_t end =
        std::min<uint64_t>(request.offset + request.length, file->file_size);
    for (uint64_t logical = request.offset / payload;
         logical * payload < end; ++logical) {
      refs.push_back({file, logical});
    }
  }
  const auto ref_before = [](const StegPartitionReader::BlockRef& a,
                             const StegPartitionReader::BlockRef& b) {
    return a.file->agent_tag != b.file->agent_tag
               ? a.file->agent_tag < b.file->agent_tag
               : a.logical < b.logical;
  };
  std::sort(refs.begin(), refs.end(), ref_before);
  refs.erase(std::unique(refs.begin(), refs.end(),
                         [](const StegPartitionReader::BlockRef& a,
                            const StegPartitionReader::BlockRef& b) {
                           return a.file == b.file && a.logical == b.logical;
                         }),
             refs.end());

  // Every block lands in group_blocks_, kept across groups; its growth is
  // the only fill.
  if (group_blocks_.size() < refs.size() * payload) {
    group_blocks_.resize(refs.size() * payload);
  }
  STEGHIDE_RETURN_IF_ERROR(reader_->ReadRefBatch(refs, group_blocks_.data()));

  std::vector<Bytes> out(requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    const ReadRequest& request = requests[r];
    const HiddenFile* file = file_at(request.file)->second;
    if (request.offset >= file->file_size || request.length == 0) continue;
    const uint64_t end =
        std::min<uint64_t>(request.offset + request.length, file->file_size);
    out[r].reserve(end - request.offset);
    for (uint64_t logical = request.offset / payload;
         logical * payload < end; ++logical) {
      const uint64_t begin = logical * payload;
      const uint64_t lo = std::max<uint64_t>(request.offset, begin);
      const uint64_t hi = std::min<uint64_t>(end, begin + payload);
      // The first ref of this record id, as the sort placed it.
      const auto ref = std::lower_bound(
          refs.begin(), refs.end(),
          StegPartitionReader::BlockRef{file, logical}, ref_before);
      const uint8_t* src =
          group_blocks_.data() + (ref - refs.begin()) * payload;
      out[r].insert(out[r].end(), src + (lo - begin), src + (hi - begin));
    }
  }
  return out;
}

Status ObliviousAgent::Write(FileId id, uint64_t offset, const uint8_t* data,
                             size_t n) {
  if (n == 0) return Status::OK();
  const WriteView view{id, offset, std::span<const uint8_t>(data, n)};
  std::lock_guard<std::mutex> lock(io_mu_);
  return WriteGroupImpl(std::span<const WriteView>(&view, 1));
}

Status ObliviousAgent::WriteGroup(std::span<const WriteRequest> requests) {
  std::vector<WriteView> views(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    views[i] = WriteView{requests[i].file, requests[i].offset,
                         requests[i].data};
  }
  std::lock_guard<std::mutex> lock(io_mu_);
  return WriteGroupImpl(views);
}

Status ObliviousAgent::WriteGroupImpl(std::span<const WriteView> views) {
  obs::ScopedSpan span(trace_, "agent.write_group", trace_track_,
                       {{"n", static_cast<int64_t>(views.size())}});
  const size_t payload = core_->payload_size();

  // Per-file image pointer (re-inspected after relocating writes) and
  // the data-block count at group entry, which decides what stage 1 may
  // prefetch.
  struct FileState {
    const HiddenFile* file = nullptr;
    uint64_t initial_blocks = 0;
  };
  std::unordered_map<FileId, FileState> files;
  for (const WriteView& view : views) {
    auto [it, inserted] = files.try_emplace(view.file);
    if (inserted) {
      STEGHIDE_ASSIGN_OR_RETURN(it->second.file,
                                agent_.InspectFile(view.file));
      it->second.initial_blocks = it->second.file->num_data_blocks();
    }
  }

  // Stage 1 — batched read-modify-write prefetch: every block whose first
  // touch in this group is a partial overwrite of initially existing
  // content comes in through the hidden read path — one cross-file group,
  // so the fetches are as pattern-free as any other read. Blocks first
  // touched by a full overwrite (or created by this group) are staged
  // without I/O.
  std::map<std::pair<FileId, uint64_t>, Bytes> images;
  {
    std::map<std::pair<FileId, uint64_t>, bool> first_touch_partial;
    for (const WriteView& op : views) {
      if (op.data.empty()) continue;
      const uint64_t end = op.offset + op.data.size();
      for (uint64_t logical = op.offset / payload; logical * payload < end;
           ++logical) {
        const uint64_t begin = logical * payload;
        const uint64_t lo = std::max<uint64_t>(op.offset, begin);
        const uint64_t hi = std::min<uint64_t>(end, begin + payload);
        const bool partial = (lo != begin || hi != begin + payload);
        first_touch_partial.try_emplace({op.file, logical}, partial);
      }
    }
    std::vector<StegPartitionReader::BlockRef> prefetch;
    std::vector<std::pair<FileId, uint64_t>> prefetch_keys;
    for (const auto& [key, partial] : first_touch_partial) {
      const FileState& state = files.at(key.first);
      if (partial && key.second < state.initial_blocks) {
        prefetch.push_back({state.file, key.second});
        prefetch_keys.push_back(key);
      }
    }
    if (!prefetch.empty()) {
      Bytes fetched(prefetch.size() * payload);
      STEGHIDE_RETURN_IF_ERROR(
          reader_->ReadRefBatch(prefetch, fetched.data()));
      for (size_t i = 0; i < prefetch.size(); ++i) {
        images[prefetch_keys[i]].assign(fetched.data() + i * payload,
                                        fetched.data() + (i + 1) * payload);
      }
    }
  }

  // Stage 2 — apply ops in order. Persistence on the StegFS partition
  // stays per block: each Figure-6 relocating update reshapes the
  // selection domain the next one draws from, so their sequence is the
  // observable pattern and cannot be merged. The oblivious-cache
  // refreshes, by contrast, batch into one cross-file group below.
  std::vector<RecordId> refresh_order;
  std::unordered_map<RecordId, Bytes> refresh;
  Status persist_status;
  for (const WriteView& op : views) {
    if (!persist_status.ok()) break;
    if (op.data.empty()) continue;
    FileState& state = files.at(op.file);
    const uint64_t end = op.offset + op.data.size();
    for (uint64_t logical = op.offset / payload; logical * payload < end;
         ++logical) {
      const uint64_t begin = logical * payload;
      const uint64_t lo = std::max<uint64_t>(op.offset, begin);
      const uint64_t hi = std::min<uint64_t>(end, begin + payload);

      auto [it, inserted] = images.try_emplace({op.file, logical});
      if (inserted) it->second.assign(payload, 0);
      Bytes& block = it->second;
      std::memcpy(block.data() + (lo - begin), op.data.data() + (lo - op.offset),
                  hi - lo);

      // Persist via the relocating update (this also extends the file for
      // appends). Write the whole staged block, but never extend the file
      // past max(old end, new end) — clamping avoids rounding a trailing
      // partial block up to a full one.
      const HiddenFile* file = state.file;
      const bool existing = logical < file->num_data_blocks();
      const uint64_t keep =
          existing ? std::min<uint64_t>(payload, file->file_size - begin) : 0;
      const uint64_t write_len = std::max<uint64_t>(hi - begin, keep);
      persist_status = agent_.Write(op.file, begin, block.data(), write_len);
      if (!persist_status.ok()) break;

      // Record the cache refresh first (agent_tag is stable across
      // relocation, so the record id does not depend on the re-inspect).
      const RecordId rec = StegPartitionReader::MakeRecordId(*file, logical);
      if (existing || store_->Contains(rec)) {
        auto [rit, rinserted] = refresh.try_emplace(rec);
        if (rinserted) refresh_order.push_back(rec);
        rit->second = block;  // later duplicates win
      }

      // The file image may have been reallocated by growth; re-inspect.
      // Failures break (not return) so Stage 3 still refreshes the
      // blocks persisted so far.
      auto reinspect = agent_.InspectFile(op.file);
      if (!reinspect.ok()) {
        persist_status = reinspect.status();
        break;
      }
      state.file = *reinspect;
    }
  }

  // Stage 3 — one hidden-update group refreshes the cached copies, so
  // subsequent oblivious reads see the new content. This runs even when
  // a mid-group persist failed: every block persisted *before* the
  // failure must not keep serving stale cached content.
  if (!refresh_order.empty()) {
    Bytes flat(refresh_order.size() * payload);
    for (size_t i = 0; i < refresh_order.size(); ++i) {
      const Bytes& image = refresh[refresh_order[i]];
      std::copy(image.begin(), image.end(), flat.data() + i * payload);
    }
    STEGHIDE_RETURN_IF_ERROR(store_->MultiWrite(refresh_order, flat.data()));
  }
  return persist_status;
}

Status ObliviousAgent::IdleDummyOp() {
  std::lock_guard<std::mutex> lock(io_mu_);
  STEGHIDE_RETURN_IF_ERROR(agent_.IdleDummyUpdates(1));
  return reader_->IdleDummyOp();
}

Result<bool> ObliviousAgent::PumpReorder(uint64_t budget_blocks) {
  bool more = false;
  STEGHIDE_RETURN_IF_ERROR(store_->StepReorder(budget_blocks, &more));
  return more;
}

}  // namespace steghide::agent
