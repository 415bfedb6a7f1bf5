#include "oblivious/oblivious_store.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <limits>

#include "crypto/key.h"
#include "storage/volume_set.h"

namespace steghide::oblivious {

namespace {
bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Re-order run size floor: at least the agent buffer B, floored at 256
// blocks (1 MB at 4 KB blocks — inside the agent-buffer envelope the
// paper's own Figure 12 sweep explores, and the same order of memory the
// merge's chunked look-ahead already uses). Small re-orders (levels 1-2
// always, deeper levels on small hierarchies) then sort entirely in
// memory and write the destination in one ascending sweep, skipping the
// scratch round-trip; the shuffle is unchanged (same random-tag order),
// and the observable pattern stays data-independent: read every live
// slot ascending, write the target sequentially. Large levels still
// spill and merge externally.
constexpr uint64_t kReorderRunFloor = 256;
}  // namespace

ObliviousStore::ObliviousStore(storage::BlockDevice* device,
                               const ObliviousStoreOptions& options)
    : retry_(options.io_retry.has_value()
                 ? std::make_unique<storage::RetryingBlockDevice>(
                       device, *options.io_retry)
                 : nullptr),
      device_(retry_ != nullptr ? retry_.get() : device),
      options_(options),
      codec_(device->block_size()),
      drbg_(options.drbg_seed) {
  // Reporting only (io_shard_count, shadow_spindle_separated): a sharded
  // volume already splits each vectored call by stripe, keeps per-shard
  // order and joins once.
  if (auto* sharded = dynamic_cast<storage::ShardedBlockDevice*>(device)) {
    io_shards_ = sharded->shard_count();
  }
  // One persistent sorter per store: its payload arena and seal scratch
  // are recycled across re-orders instead of reconstructed per call.
  sorter_ = std::make_unique<ExternalMergeSorter>(
      device_, &codec_, &cipher_, &drbg_, options_.scratch_base,
      std::max<uint64_t>(options_.buffer_blocks, kReorderRunFloor));
  reorder_ = std::make_unique<ReorderJob>(device_, &codec_, &cipher_, &drbg_,
                                          sorter_.get());
}

Result<std::unique_ptr<ObliviousStore>> ObliviousStore::Create(
    storage::BlockDevice* device, const ObliviousStoreOptions& options) {
  const uint64_t b = options.buffer_blocks;
  const uint64_t n = options.capacity_blocks;
  if (b == 0 || n <= b || n % b != 0 || !IsPowerOfTwo(n / b)) {
    return Status::InvalidArgument(
        "capacity must be buffer * 2^k with k >= 1");
  }
  std::unique_ptr<ObliviousStore> store(new ObliviousStore(device, options));

  STEGHIDE_RETURN_IF_ERROR(store->cipher_.SetKey(
      store->drbg_.Generate(crypto::kDefaultKeyLen)));

  uint64_t base = options.partition_base;
  for (uint64_t cap = 2 * b; cap <= n; cap *= 2) {
    Level level;
    level.base = base;
    level.alt_base = base;  // shadow assigned below when double-buffered
    level.capacity = cap;
    base += cap;
    store->levels_.push_back(std::move(level));
  }
  const uint64_t hierarchy_end = base;
  const uint64_t mirror = hierarchy_end - options.partition_base;

  // Geometry checks: hierarchy and scratch must fit the device and not
  // overlap each other.
  if (hierarchy_end > device->num_blocks() ||
      options.scratch_base + n > device->num_blocks()) {
    return Status::InvalidArgument("oblivious partitions exceed device");
  }
  const bool overlap = options.scratch_base < hierarchy_end &&
                       options.partition_base < options.scratch_base + n;
  if (overlap) {
    return Status::InvalidArgument("scratch overlaps level hierarchy");
  }

  // Double buffering pays a constant seek overhead (rebuilds read one
  // region and write its twin; scans probe mixed-epoch regions), worth
  // it only when rebuild stalls are long — i.e. when the hierarchy is
  // deep. Shallow stores (one or two levels) keep the blocking
  // schedule: their largest rebuild is already a short stall, and the
  // deamortized machinery would cost ~10% steady-state throughput for
  // nothing.
  if (store->levels_.size() < 3) {
    store->options_.deamortize_reorders = false;
  }
  if (store->options_.deamortize_reorders) {
    // Shadow mirror: a second hierarchy-shaped region the double-buffered
    // rebuilds ping-pong with; per-level offsets match the primary.
    if (options.shadow_base + mirror > device->num_blocks()) {
      return Status::InvalidArgument("shadow mirror exceeds device");
    }
    const bool shadow_hier = options.shadow_base < hierarchy_end &&
                             options.partition_base <
                                 options.shadow_base + mirror;
    const bool shadow_scratch =
        options.shadow_base < options.scratch_base + n &&
        options.scratch_base < options.shadow_base + mirror;
    if (shadow_hier || shadow_scratch) {
      return Status::InvalidArgument(
          "shadow mirror overlaps hierarchy or scratch");
    }
    for (Level& level : store->levels_) {
      level.alt_base =
          options.shadow_base + (level.base - options.partition_base);
    }
  }

  store->cells_.reorder_ms =
      std::vector<obs::GaugeCell>(store->levels_.size());
  store->projection_.assign(store->levels_.size(), LevelProjection{});
  store->ConfigureObservability();
  return store;
}

void ObliviousStore::ConfigureObservability() {
  trace_ = options_.trace;
  if (trace_ != nullptr) {
    trace_track_ = trace_->RegisterTrack("store");
    io_track_ = trace_->RegisterTrack("io");
    if (retry_ != nullptr) retry_->set_trace(trace_, io_track_);
  }
  if (options_.registry != nullptr) {
    const std::string p = "store";
    registration_ = obs::Registration(options_.registry);
    obs::RegisterRows(kStatRows, cells_, p, &registration_);
    registration_.Histogram(p + ".stall_ms", &cells_.stall);
    registration_.Callback(p + ".stall_total_ms",
                           [this] { return cells_.stall.sum(); });
    registration_.Gauge(p + ".chain_pending_steps",
                        &cells_.chain_pending_steps);
    registration_.Gauge(p + ".chain_remaining_blocks",
                        &cells_.chain_remaining_blocks);
    obs::RegisterRows(kIoRows, cells_, "io", &registration_);
    registration_.Histogram("io.queue_depth", &cells_.io_depth);
    if (retry_ != nullptr) retry_->RegisterMetrics(options_.registry, "io");
  }
}

ObliviousStats ObliviousStore::stats() const {
  ObliviousStats s = obs::ReadRows(kStatRows, cells_);
  s.reorder_ms.reserve(cells_.reorder_ms.size());
  for (const obs::GaugeCell& level : cells_.reorder_ms) {
    s.reorder_ms.push_back(level.value());
  }
  s.stall_ms = cells_.stall.sum();
  s.max_stall_ms = cells_.stall.max();
  s.stall_p99_ms = cells_.stall.Percentile(99.0);
  return s;
}

storage::IoSchedulerStats ObliviousStore::io_stats() const {
  storage::IoSchedulerStats s = obs::ReadRows(kIoRows, cells_);
  s.queue_depth_p99 = cells_.io_depth.Percentile(99.0);
  if (retry_ != nullptr) {
    const storage::RetryStats r = retry_->stats();
    s.retries = r.retries;
    s.retry_exhausted = r.exhausted;
  }
  return s;
}

void ObliviousStore::ResetStats() {
  obs::ResetRows(kStatRows, &cells_);
  for (obs::GaugeCell& level : cells_.reorder_ms) level.Reset();
  cells_.stall.Reset();
}

uint64_t ObliviousStore::hierarchy_blocks() const {
  return 2 * options_.capacity_blocks - 2 * options_.buffer_blocks;
}

std::vector<uint64_t> ObliviousStore::LevelOccupancy() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> occ;
  occ.reserve(levels_.size());
  for (const Level& level : levels_) occ.push_back(level.live_count());
  return occ;
}

std::vector<uint64_t> ObliviousStore::LevelBases() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> bases;
  bases.reserve(levels_.size());
  for (const Level& level : levels_) bases.push_back(level.base);
  return bases;
}

bool ObliviousStore::shadow_spindle_separated() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (io_shards_ <= 1) return false;
  // Slot s of a level lives at base + s and its shadow twin at
  // alt_base + s; under the g % K stripe they differ for *every* s
  // exactly when the bases differ mod the shard count.
  for (const Level& level : levels_) {
    if (!level.double_buffered()) continue;
    if (level.base % io_shards_ == level.alt_base % io_shards_) return false;
  }
  return true;
}

Status ObliviousStore::ChargeIndexRebuild(const Level& level) {
  if (!options_.charge_index_io) return Status::OK();
  // 16 bytes per entry (hashed key + slot), written sequentially. The
  // burst goes to the front of the scratch partition, which holds no
  // record between re-orders: written over the level, it would clobber
  // the records just installed in its first slots.
  const uint64_t entry_bytes = 16 * level.live_count();
  const uint64_t blocks =
      (entry_bytes + codec_.block_size() - 1) / codec_.block_size();
  Bytes block(codec_.block_size(), 0);
  for (uint64_t i = 0; i < blocks && i < level.capacity; ++i) {
    STEGHIDE_RETURN_IF_ERROR(
        device_->WriteBlock(options_.scratch_base + i, block.data()));
    cells_.index_io.Increment();
  }
  return Status::OK();
}

Status ObliviousStore::PlanScan(std::span<const RecordId> ids,
                                std::span<const uint8_t> scan,
                                std::span<const uint8_t> decoy_only) {
  cells_.scan_passes.Increment();
  const size_t k = ids.size();
  size_t scan_k = 0;
  for (size_t i = 0; i < k; ++i) scan_k += scan[i] != 0;

  plan_.Reset();
  std::vector<uint8_t>& found = found_scratch_;
  found.assign(k, 0);
  const bool chain = ChainActiveLocked();
  for (size_t li = 0; li < levels_.size(); ++li) {
    Level& level = levels_[li];
    // A level already emptied by an earlier chain install but still being
    // refilled keeps its blocking probe shape: decoys over the projected
    // occupancy of the region that will become active. The projection is
    // fixed at the flush trigger, so the shape depends only on the
    // schedule, never on the data.
    const bool pending_fill = chain && level.empty() &&
                              projection_[li].involved &&
                              projection_[li].projected_occ > 0;
    if (level.empty() && !pending_fill) continue;
    const uint64_t probe_base =
        pending_fill ? projection_[li].projected_base : level.base;
    const uint64_t probe_occ =
        pending_fill ? projection_[li].projected_occ : level.occupied();
    ScanPlan::LevelPass& pass = plan_.AppendPass();
    pass.probes.reserve(scan_k + 1);
    if (options_.charge_index_io) {
      // The spilled index "in the front of the corresponding level" is
      // read once per pass and answers every lookup of the group — this
      // amortization is what lowers the overhead *factor* with k.
      pass.probes.push_back({probe_base, ScanPlan::kDecoy});
      cells_.index_io.Increment();
      cells_.probes_saved.Add(scan_k - 1);
    }
    for (size_t i = 0; i < k; ++i) {
      if (!scan[i]) continue;
      std::optional<uint64_t> hit;
      if (!pending_fill) hit = level.index.Get(ids[i]);
      if (!decoy_only[i] && !found[i] && hit.has_value()) {
        found[i] = 1;
        pass.probes.push_back({level.base + *hit, i});
      } else {
        // Decoy: uniformly random occupied slot. Stale slots are
        // eligible — to the observer every slot is the same.
        pass.probes.push_back(
            {probe_base + drbg_.Uniform(probe_occ), ScanPlan::kDecoy});
      }
      cells_.level_probe_reads.Increment();
    }
    // Elevator order within the pass: the probe multiset is a fresh set
    // of uniform draws plus real slots of a concealed permutation, so
    // its sorted image is data-independent. Probes that tie share one
    // block, so their order changes neither the issued block sequence
    // nor the bytes any of them reads: an in-place sort will do.
    std::sort(pass.probes.begin(), pass.probes.end(),
              [](const ScanPlan::Probe& a, const ScanPlan::Probe& b) {
                return a.block < b.block;
              });
  }
  for (size_t i = 0; i < k; ++i) {
    if (scan[i] && !decoy_only[i] && !found[i]) {
      return Status::Internal("record in present set but not found in levels");
    }
  }
  return Status::OK();
}

Status ObliviousStore::ExecuteScan(uint8_t* out_payloads) {
  obs::ScopedSpan span(trace_, "store.scan", trace_track_,
                       {{"passes", static_cast<int64_t>(plan_.count)}});
  // The whole sweep is one vectored read: every level pass's probes, in
  // plan order. No device may drop, coalesce or reorder a block of it
  // (block_device.h) — the probe count and sequence are the attacker-
  // visible pattern, colliding decoys included — and a sharded volume
  // splits the call by stripe, keeps per-shard order and charges its
  // parallel clock once per sweep.
  const size_t bs = codec_.block_size();
  sweep_ids_.clear();
  for (size_t p = 0; p < plan_.count; ++p) {
    for (const ScanPlan::Probe& probe : plan_.passes[p].probes) {
      sweep_ids_.push_back(probe.block);
    }
  }
  sweep_buf_.resize(sweep_ids_.size() * bs);
  if (!sweep_ids_.empty()) {
    const auto n = static_cast<int64_t>(sweep_ids_.size());
    cells_.io_drains.Increment();
    cells_.io_depth.Record(static_cast<double>(n));
    obs::ScopedSpan drain(trace_, "io.drain", io_track_, {{"reqs", n}});
    STEGHIDE_RETURN_IF_ERROR(
        device_->ReadBlocks(sweep_ids_, sweep_buf_.data()));
    cells_.io_physical_reads.Add(sweep_ids_.size());
  }

  // Batched decrypt + extract (decoys stay sealed): the real probes of
  // every pass in the sweep go through one scattered codec open, which
  // pipelines their CBC chains across the AES units. Payloads land
  // directly in the caller's buffer — real slots own distinct requests,
  // so the destinations never alias.
  const size_t ps = codec_.payload_size();
  open_blocks_scratch_.clear();
  open_payloads_scratch_.clear();
  const uint8_t* block = sweep_buf_.data();
  for (size_t p = 0; p < plan_.count; ++p) {
    for (const ScanPlan::Probe& probe : plan_.passes[p].probes) {
      if (probe.owner != ScanPlan::kDecoy) {
        open_blocks_scratch_.push_back(block);
        open_payloads_scratch_.push_back(
            out_payloads != nullptr ? out_payloads + probe.owner * ps
                                    : nullptr);
      }
      block += bs;
    }
  }
  if (open_blocks_scratch_.empty()) return Status::OK();
  if (out_payloads == nullptr) {
    // Write-shaped scans discard the plaintext; still run the opens (same
    // work as the read path) into per-chain scratch slots.
    payload_scratch_.resize(open_blocks_scratch_.size() * ps);
    for (size_t i = 0; i < open_payloads_scratch_.size(); ++i) {
      open_payloads_scratch_[i] = payload_scratch_.data() + i * ps;
    }
  }
  const auto crypto_t0 = std::chrono::steady_clock::now();
  STEGHIDE_RETURN_IF_ERROR(
      codec_.OpenScatter(cipher_, open_blocks_scratch_, open_payloads_scratch_));
  const std::chrono::duration<double, std::milli> crypto_wall =
      std::chrono::steady_clock::now() - crypto_t0;
  cells_.crypto_wall_ms.Add(crypto_wall.count());
  return Status::OK();
}

Status ObliviousStore::ReadGroup(std::span<const RecordId> ids,
                                 uint8_t* out_payloads, bool dummy) {
  const size_t k = ids.size();
  const size_t ps = codec_.payload_size();
  obs::ScopedSpan span(trace_, "store.read_group", trace_track_,
                       {{"n", static_cast<int64_t>(k)}});
  if (!dummy) cells_.user_reads.Add(k);
  if (k > 1) cells_.batched_requests.Add(k);
  const double t0 = Clock();

  scan_scratch_.assign(k, 0);
  dup_scratch_.assign(k, 0);
  ghost_scratch_.assign(k, 0);
  std::vector<uint8_t>& scan = scan_scratch_;
  std::vector<uint8_t>& dup = dup_scratch_;
  std::vector<uint8_t>& ghost = ghost_scratch_;
  // Scanned id -> its first position in the group.
  HashIndex& first_scan = group_ids_;
  first_scan.Rebuild(0, k);
  bool any_scan = false;
  for (size_t i = 0; i < k; ++i) {
    const auto buf_it = buffer_.find(ids[i]);
    if (buf_it != buffer_.end()) {
      // Buffer hit: served from agent memory, no observable I/O.
      cells_.buffer_hits.Increment();
      std::memcpy(out_payloads + i * ps, buf_it->second.data(),
                  buf_it->second.size());
      continue;
    }
    const auto flush_it = flushing_.find(ids[i]);
    if (flush_it != flushing_.end()) {
      // Ghost: the record sits in the pending flush snapshot a re-order
      // chain is still installing. Served from agent memory, but traced
      // like the blocking schedule — where it would occupy the freshly
      // rebuilt level — with a full decoy sweep.
      scan[i] = 1;
      dup[i] = 1;
      ghost[i] = 1;
      any_scan = true;
      std::memcpy(out_payloads + i * ps, flush_it->second.data(),
                  flush_it->second.size());
      continue;
    }
    scan[i] = 1;
    any_scan = true;
    if (first_scan.Get(ids[i]).has_value()) {
      dup[i] = 1;  // duplicated real slot: all-decoy probes
    } else {
      first_scan.Put(ids[i], i);
    }
  }

  if (any_scan) {
    STEGHIDE_RETURN_IF_ERROR(PlanScan(ids, scan, dup));
    STEGHIDE_RETURN_IF_ERROR(ExecuteScan(out_payloads));
    for (size_t i = 0; i < k; ++i) {
      if (dup[i] && !ghost[i]) {
        std::memcpy(out_payloads + i * ps,
                    out_payloads + *first_scan.Get(ids[i]) * ps, ps);
      }
    }
  }
  cells_.retrieve_ms.Add(Clock() - t0);

  // Scanned records re-join the buffer so the slots just exposed are
  // never read again before a re-order; ghosts re-join too, exactly as
  // their blocking twins would after their level-1 probe. The flush runs
  // once per group.
  for (size_t i = 0; i < k; ++i) {
    if (scan[i] && (!dup[i] || ghost[i])) {
      BufferStage(ids[i], out_payloads + i * ps);
    }
  }
  STEGHIDE_RETURN_IF_ERROR(MaybeFlush());
  return PaceChainLocked(k);
}

Status ObliviousStore::WriteGroup(std::span<const RecordId> ids,
                                  const uint8_t* payloads) {
  const size_t k = ids.size();
  const size_t ps = codec_.payload_size();
  obs::ScopedSpan span(trace_, "store.write_group", trace_track_,
                       {{"n", static_cast<int64_t>(k)}});
  if (k > 1) cells_.batched_requests.Add(k);

  // Capacity pre-check so the group applies atomically.
  uint64_t fresh = 0;
  group_ids_.Rebuild(0, k);
  for (size_t i = 0; i < k; ++i) {
    if (!ContainsLocked(ids[i]) && group_ids_.Put(ids[i], 0)) ++fresh;
  }
  if (present_index_.size() + fresh > options_.capacity_blocks) {
    return Status::NoSpace("oblivious store at capacity");
  }

  const double t0 = Clock();
  scan_scratch_.assign(k, 0);
  dup_scratch_.assign(k, 0);
  std::vector<uint8_t>& scan = scan_scratch_;
  std::vector<uint8_t>& decoy_only = dup_scratch_;
  // Ids that will be in the buffer by the time a later group member is
  // processed (insert or scan earlier in the group): later occurrences
  // take the buffer-hit shape, exactly as the sequential path would.
  HashIndex& staged = group_ids_;
  staged.Rebuild(0, k);
  // First-time ids register only after the fallible scan below, so a
  // failed group never strands a present id that is stored nowhere.
  std::vector<RecordId>& fresh_ids = fresh_scratch_;
  fresh_ids.clear();
  bool any_scan = false;
  for (size_t i = 0; i < k; ++i) {
    const RecordId id = ids[i];
    const bool was_staged = staged.Get(id).has_value();
    if (!ContainsLocked(id) && !was_staged) {
      // First-time insertion: buffer-only, no level touches (the caller's
      // fetch from the StegFS partition was the observable I/O).
      fresh_ids.push_back(id);
      staged.Put(id, 0);
      continue;
    }
    cells_.user_writes.Increment();
    if (was_staged || buffer_.find(id) != buffer_.end()) continue;
    // Same touch pattern as a read — an observer cannot tell a hidden
    // update from a retrieval. The fetched content is superseded. A
    // record parked in the pending flush snapshot gets the ghost shape:
    // all-decoy probes, new payload through the buffer.
    scan[i] = 1;
    any_scan = true;
    staged.Put(id, 0);
    if (flushing_.find(id) != flushing_.end()) decoy_only[i] = 1;
  }

  if (any_scan) {
    STEGHIDE_RETURN_IF_ERROR(PlanScan(ids, scan, decoy_only));
    STEGHIDE_RETURN_IF_ERROR(ExecuteScan(nullptr));
  }
  cells_.retrieve_ms.Add(Clock() - t0);

  for (const RecordId id : fresh_ids) {
    // Infallible: the capacity pre-check above covered every fresh id.
    STEGHIDE_RETURN_IF_ERROR(RegisterPresent(id));
  }
  for (size_t i = 0; i < k; ++i) BufferStage(ids[i], payloads + i * ps);
  STEGHIDE_RETURN_IF_ERROR(MaybeFlush());
  return PaceChainLocked(k);
}

Status ObliviousStore::Read(RecordId id, uint8_t* out_payload) {
  std::lock_guard<std::mutex> lock(mu_);
  return MultiReadLocked(std::span<const RecordId>(&id, 1), out_payload);
}

Status ObliviousStore::MultiRead(std::span<const RecordId> ids,
                                 uint8_t* out_payloads) {
  std::lock_guard<std::mutex> lock(mu_);
  return MultiReadLocked(ids, out_payloads);
}

Status ObliviousStore::MultiReadLocked(std::span<const RecordId> ids,
                                       uint8_t* out_payloads) {
  for (const RecordId id : ids) {
    if (!ContainsLocked(id)) return Status::NotFound("record not cached");
  }
  STEGHIDE_RETURN_IF_ERROR(FinishBlockingChainLocked());
  const size_t max_k = options_.buffer_blocks;
  for (size_t off = 0; off < ids.size(); off += max_k) {
    const size_t n = std::min(max_k, ids.size() - off);
    STEGHIDE_RETURN_IF_ERROR(ReadGroup(ids.subspan(off, n),
                                       out_payloads + off * codec_.payload_size(),
                                       /*dummy=*/false));
  }
  return Status::OK();
}

Status ObliviousStore::Write(RecordId id, const uint8_t* payload) {
  std::lock_guard<std::mutex> lock(mu_);
  return MultiWriteLocked(std::span<const RecordId>(&id, 1), payload);
}

Status ObliviousStore::MultiWrite(std::span<const RecordId> ids,
                                  const uint8_t* payloads) {
  std::lock_guard<std::mutex> lock(mu_);
  return MultiWriteLocked(ids, payloads);
}

Status ObliviousStore::MultiWriteLocked(std::span<const RecordId> ids,
                                        const uint8_t* payloads) {
  STEGHIDE_RETURN_IF_ERROR(FinishBlockingChainLocked());
  const size_t max_k = options_.buffer_blocks;
  for (size_t off = 0; off < ids.size(); off += max_k) {
    const size_t n = std::min(max_k, ids.size() - off);
    STEGHIDE_RETURN_IF_ERROR(WriteGroup(
        ids.subspan(off, n), payloads + off * codec_.payload_size()));
  }
  return Status::OK();
}

Status ObliviousStore::Insert(RecordId id, const uint8_t* payload) {
  std::lock_guard<std::mutex> lock(mu_);
  return MultiInsertLocked(std::span<const RecordId>(&id, 1), payload);
}

Status ObliviousStore::MultiInsert(std::span<const RecordId> ids,
                                   const uint8_t* payloads) {
  std::lock_guard<std::mutex> lock(mu_);
  return MultiInsertLocked(ids, payloads);
}

Status ObliviousStore::MultiInsertLocked(std::span<const RecordId> ids,
                                         const uint8_t* payloads) {
  STEGHIDE_RETURN_IF_ERROR(FinishBlockingChainLocked());
  const size_t max_k = options_.buffer_blocks;
  const size_t ps = codec_.payload_size();
  for (size_t off = 0; off < ids.size(); off += max_k) {
    const size_t n = std::min(max_k, ids.size() - off);
    uint64_t fresh = 0;
    group_ids_.Rebuild(0, n);
    for (size_t i = 0; i < n; ++i) {
      const RecordId id = ids[off + i];
      if (!ContainsLocked(id) && group_ids_.Put(id, 0)) ++fresh;
    }
    if (present_index_.size() + fresh > options_.capacity_blocks) {
      return Status::NoSpace("oblivious store at capacity");
    }
    for (size_t i = 0; i < n; ++i) {
      STEGHIDE_RETURN_IF_ERROR(RegisterPresent(ids[off + i]));
      BufferStage(ids[off + i], payloads + (off + i) * ps);
    }
    STEGHIDE_RETURN_IF_ERROR(MaybeFlush());
    STEGHIDE_RETURN_IF_ERROR(PaceChainLocked(n));
  }
  return Status::OK();
}

Status ObliviousStore::Remove(RecordId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = present_index_.find(id);
  if (it == present_index_.end()) return Status::NotFound("record not cached");
  if (PayloadNode node = buffer_.extract(id)) KeepSpare(std::move(node));
  // The flush job may still read the snapshot's copy, so its node stays
  // alive, out of every lookup, until the flush installs.
  if (PayloadNode node = flushing_.extract(id)) {
    removed_flushing_.push_back(std::move(node));
  }
  // A chain snapshot may still carry the record; the tombstone strips it
  // from every index the chain installs, so an evicted record can never
  // be resurrected by an in-flight rebuild.
  if (ChainActiveLocked()) chain_tombstones_.insert(id);
  // Any authoritative level copy turns stale: still probed as a decoy
  // target, dropped at the next re-order.
  for (Level& level : levels_) level.index.Erase(id);
  // Swap-and-pop keeps dummy-read sampling uniform and O(1).
  const size_t pos = it->second;
  const RecordId last = present_list_.back();
  present_list_[pos] = last;
  present_index_[last] = pos;
  present_list_.pop_back();
  present_index_.erase(id);
  return Status::OK();
}

Status ObliviousStore::DummyRead() {
  std::lock_guard<std::mutex> lock(mu_);
  if (present_list_.empty()) return Status::OK();
  const RecordId id = present_list_[drbg_.Uniform(present_list_.size())];
  STEGHIDE_RETURN_IF_ERROR(FinishBlockingChainLocked());
  dummy_payload_.resize(codec_.payload_size());
  STEGHIDE_RETURN_IF_ERROR(ReadGroup(std::span<const RecordId>(&id, 1),
                                     dummy_payload_.data(), /*dummy=*/true));
  // Counted once it ran; never as a user read.
  cells_.dummy_reads.Increment();
  return Status::OK();
}

Status ObliviousStore::StepReorder(uint64_t budget_blocks, bool* more) {
  std::lock_guard<std::mutex> lock(mu_);
  if (budget_blocks == 0) budget_blocks = options_.reorder_step_blocks;
  Status status = Status::OK();
  if (ChainActiveLocked()) {
    status = StepChainLocked(std::max<uint64_t>(1, budget_blocks),
                             /*stall=*/false);
  }
  if (more != nullptr) *more = ChainActiveLocked();
  return status;
}

Status ObliviousStore::RegisterPresent(RecordId id) {
  if (ContainsLocked(id)) return Status::OK();
  if (present_index_.size() >= options_.capacity_blocks) {
    return Status::NoSpace("oblivious store at capacity");
  }
  present_index_.emplace(id, present_list_.size());
  present_list_.push_back(id);
  return Status::OK();
}

void ObliviousStore::BufferStage(RecordId id, const uint8_t* payload) {
  const uint8_t* end = payload + codec_.payload_size();
  const auto it = buffer_.find(id);
  if (it != buffer_.end()) {
    it->second.assign(payload, end);
  } else if (spare_nodes_.empty()) {
    buffer_.try_emplace(id, payload, end);
  } else {
    // Inserting a node puts it where emplacing the record would, so
    // buffer_'s order — the next flush set's order — is unchanged.
    PayloadNode node = std::move(spare_nodes_.back());
    spare_nodes_.pop_back();
    node.key() = id;
    node.mapped().assign(payload, end);
    buffer_.insert(std::move(node));
  }
}

Status ObliviousStore::MaybeFlush() {
  if (buffer_.size() < options_.buffer_blocks) return Status::OK();
  return FlushBuffer();
}

Status ObliviousStore::FlushBuffer() {
  if (ChainActiveLocked()) {
    if (options_.deamortize_reorders && !options_.strict_reorder_schedule &&
        buffer_.size() < DeferLimitRecords()) {
      // Coalesce: let the running chain finish while the buffer keeps
      // absorbing stagings (bounded by DeferLimitRecords()). One rebuild
      // then absorbs the whole set, and a set that outgrows the upper
      // levels folds them — those records skip per-level rewrites.
      cells_.deferred_flushes.Increment();
      return Status::OK();
    }
    // Hard backstop (or strict schedule): finish the remaining chain
    // work synchronously. With pacing and idle pumping this remainder is
    // small — it is what max_stall_ms measures.
    STEGHIDE_RETURN_IF_ERROR(DrainChainLocked());
  }
  obs::ScopedSpan span(trace_, "store.flush", trace_track_,
                       {{"records", static_cast<int64_t>(buffer_.size())}});
  STEGHIDE_RETURN_IF_ERROR(StartFlushChainLocked());
  // The blocking schedule runs the whole cascade inside this serving op —
  // the stall the deamortized schedule exists to break up.
  return options_.deamortize_reorders ? Status::OK() : DrainChainLocked();
}

// ---- Re-order chain machinery --------------------------------------------

Status ObliviousStore::StartFlushChainLocked() {
  assert(!ChainActiveLocked() && flushing_.empty());
  cells_.buffer_flushes.Increment();
  const uint64_t flush_size = buffer_.size();

  // Choose the flush target: the first level whose capacity covers the
  // flush set plus every level folded above it (conservative, pre-dedup
  // — the last level always qualifies because distinct records never
  // exceed N). Without deferral the flush set is at most 2B - 1, so
  // t == 0 and the plan is the paper's dump recursion; deferral can grow
  // the set past 2B, which folds level 1 (and, in principle, deeper
  // levels) into the flush job.
  size_t t = 0;
  uint64_t folded_live = 0;
  while (t + 1 < levels_.size() &&
         levels_[t].capacity < flush_size + folded_live) {
    folded_live += levels_[t].live_count();
    ++t;
  }

  // dump(i) merges level i into level i+1, first dumping level i+1 when
  // the merge would overflow it. From t, that recursion dumps levels
  // deepest, deepest - 1, ..., t in turn, deepest first, with live counts
  // frozen at this trigger.
  const bool dump = t + 1 < levels_.size() &&
                    levels_[t].live_count() + flush_size + folded_live >
                        levels_[t].capacity;
  size_t deepest = t;
  while (dump && deepest + 2 < levels_.size() &&
         levels_[deepest + 1].live_count() + levels_[deepest].live_count() >
             levels_[deepest + 1].capacity) {
    ++deepest;
  }

  chain_.count = 0;
  chain_.front = 0;
  projection_.assign(levels_.size(), LevelProjection{});

  // Snapshot one step's inputs: ascending live-slot sweeps with the
  // dedup priority memory > higher levels > target. Sort tags are drawn
  // later, as the job feeds each item to the sorter.
  const auto sweep_level = [&](size_t li, ReorderJob::Inputs& inputs) {
    const Level& level = levels_[li];
    for (uint64_t slot = 0; slot < level.occupied(); ++slot) {
      const RecordId id = level.slot_ids[slot];
      if (level.IsStale(slot)) continue;
      if (!reorder_added_.Put(id, 0)) continue;
      inputs.device.push_back({level.base + slot, id});
    }
  };
  // Appends a step to the plan, in storage kept from earlier chains.
  const auto add_step = [&](size_t target_idx, size_t clear_begin,
                            size_t clear_end, bool is_flush) -> ChainStep& {
    if (chain_.count == chain_.steps.size()) chain_.steps.emplace_back();
    ChainStep& step = chain_.steps[chain_.count++];
    step.inputs.clear();
    step.target_level = target_idx;
    step.dst_base = levels_[target_idx].alt_base;
    step.clear_begin = clear_begin;
    step.clear_end = clear_end;
    step.is_flush = is_flush;
    return step;
  };
  const auto check_step = [&](const ChainStep& step) -> Status {
    const uint64_t count = step.inputs.size();
    if (count > levels_[step.target_level].capacity) {
      chain_.count = 0;
      projection_.assign(levels_.size(), LevelProjection{});
      return Status::Internal("re-order overflow: level capacity exceeded");
    }
    projection_[step.target_level] =
        LevelProjection{true, count, step.dst_base};
    return Status::OK();
  };

  for (size_t d = 0; dump && d <= deepest - t; ++d) {
    const size_t s = deepest - d;
    reorder_added_.Rebuild(0, levels_[s + 1].capacity);
    ChainStep& step = add_step(s + 1, s, s + 1, /*is_flush=*/false);
    sweep_level(s, step.inputs);
    // The deepest target keeps its live set.
    if (d == 0) sweep_level(s + 1, step.inputs);
    STEGHIDE_RETURN_IF_ERROR(check_step(step));
  }

  // The flush job reads the flush set's payloads where they are: the
  // nodes move to flushing_ below, and Remove() keeps a node alive until
  // the flush installs.
  reorder_added_.Rebuild(0, levels_[t].capacity);
  ChainStep& flush = add_step(t, 0, t, /*is_flush=*/true);
  flush.inputs.memory.reserve(flush_size);
  for (const auto& [id, payload] : buffer_) {
    flush.inputs.memory.push_back({id, payload.data()});
    reorder_added_.Put(id, 0);
  }
  for (size_t li = 0; li < t; ++li) sweep_level(li, flush.inputs);
  if (!dump) sweep_level(t, flush.inputs);
  STEGHIDE_RETURN_IF_ERROR(check_step(flush));
  for (size_t li = 0; li < t; ++li) {
    if (!projection_[li].involved) {
      // Folded level: emptied at the flush install and not refilled by
      // this chain; projected empty so no pending-fill probes.
      projection_[li] = LevelProjection{true, 0, levels_[li].alt_base};
    }
  }
  // Move the nodes, not the table: buffer_ keeps its buckets, whose
  // layout orders every later flush set.
  flushing_.merge(buffer_);
  BeginFrontLocked();
  UpdateChainGaugesLocked();
  if (trace_ != nullptr) {
    trace_->Instant("store.chain_start", trace_track_,
                    {{"records", static_cast<int64_t>(flush_size)},
                     {"steps", static_cast<int64_t>(chain_.count)}});
  }
  return Status::OK();
}

void ObliviousStore::KeepSpare(PayloadNode node) {
  // Up to the blocking schedule's largest flush set (2B - 1 records), so
  // its stagings never allocate. A deferred flush set can reach
  // DeferLimitRecords(); pooling all of it cost perfbench hot_read about
  // 6% of its ops/s on a 4-vCPU x86-64 host, against freeing the excess:
  // the stagings then cycle through megabytes of payloads gone cold in
  // cache.
  if (spare_nodes_.size() < 2 * options_.buffer_blocks) {
    spare_nodes_.push_back(std::move(node));
  }
}

void ObliviousStore::RetireFlushSetLocked() {
  while (!flushing_.empty()) {
    KeepSpare(flushing_.extract(flushing_.begin()));
  }
  for (PayloadNode& node : removed_flushing_) KeepSpare(std::move(node));
  removed_flushing_.clear();
}

Status ObliviousStore::InstallFrontJobLocked() {
  // The install proper is all-memory and infallible: flip, tombstones,
  // source clears, snapshot retirement, step advance. Only then runs the
  // fallible index-rebuild charge — so an I/O error there leaves the
  // chain in a consistent, resumable state instead of re-entering a
  // half-installed flip on the retry.
  const ChainStep& front = chain_.steps[chain_.front++];
  chain_.front_reads_seen = 0;
  chain_.front_writes_seen = 0;
  Level& target = levels_[front.target_level];
  target.InstallOrderAt(front.dst_base, reorder_->order(),
                        drbg_.NextUint64());
  // Strip records evicted while the snapshot was in flight: their slots
  // turn stale (decoy fodder until the next re-order), unreachable.
  for (const RecordId id : chain_tombstones_) target.index.Erase(id);
  for (size_t li = front.clear_begin; li < front.clear_end; ++li) {
    levels_[li].Clear(drbg_.NextUint64());
  }
  if (front.is_flush) RetireFlushSetLocked();
  cells_.reorders.Increment();
  ++reorder_epoch_;
  if (trace_ != nullptr) {
    trace_->Instant(
        "store.install", trace_track_,
        {{"level", static_cast<int64_t>(front.target_level) + 1}});
  }
  if (ChainActiveLocked()) {
    BeginFrontLocked();
  } else {
    chain_.count = 0;
    chain_.front = 0;
    chain_tombstones_.clear();
    projection_.assign(levels_.size(), LevelProjection{});
  }
  return ChargeIndexRebuild(target);
}

Status ObliviousStore::StepChainLocked(uint64_t budget_blocks, bool stall) {
  if (!ChainActiveLocked()) return Status::OK();
  // A blocking drain is the re-order itself, not an incremental slice.
  if (options_.deamortize_reorders) cells_.reorder_steps.Increment();
  obs::ScopedSpan span(trace_, "store.reorder_step", trace_track_,
                       {{"stall", stall ? 1 : 0}});
  const double t0 = Clock();
  uint64_t used = 0;
  while (ChainActiveLocked()) {
    ReorderJob& job = *reorder_;
    if (!job.done() && used >= budget_blocks) break;
    const size_t level = job.target_level();
    const double jt0 = Clock();
    uint64_t consumed = 0;
    Status status =
        job.done() ? Status::OK() : job.Step(budget_blocks - used, &consumed);
    used += consumed;
    // Account the job's I/O and per-level time as it happens, so stats
    // snapshots mid-chain stay meaningful.
    cells_.reorder_reads.Add(job.reads() - chain_.front_reads_seen);
    cells_.reorder_writes.Add(job.writes() - chain_.front_writes_seen);
    chain_.front_reads_seen = job.reads();
    chain_.front_writes_seen = job.writes();
    // A finished job installs in the same slice, so the install and its
    // index-rebuild charge count toward its level's re-order time.
    if (status.ok() && job.done()) status = InstallFrontJobLocked();
    cells_.reorder_ms[level].Add(Clock() - jt0);
    STEGHIDE_RETURN_IF_ERROR(status);
  }
  span.AddArg("used", static_cast<int64_t>(used));
  const double dt = Clock() - t0;
  cells_.sort_ms.Add(dt);
  if (stall) cells_.stall.Record(dt);
  UpdateChainGaugesLocked();
  return Status::OK();
}

Status ObliviousStore::DrainChainLocked() {
  return StepChainLocked(std::numeric_limits<uint64_t>::max(),
                         /*stall=*/true);
}

Status ObliviousStore::PaceChainLocked(uint64_t staged) {
  if (!ChainActiveLocked()) return Status::OK();
  // Self-pacing serving tax: spread the chain's remaining work evenly
  // over the stagings left before the hard flush backstop would force a
  // drain — proportionally to how many records this op just staged, so
  // a B-request group pays B stagings' worth, not one op's. Idle pumping
  // (StepReorder) shrinks the remainder, and with it this tax — toward
  // zero when the dispatcher has real idle gaps.
  const uint64_t remaining = ChainRemainingBlocksLocked();
  const uint64_t backstop = options_.strict_reorder_schedule
                                ? options_.buffer_blocks
                                : DeferLimitRecords();
  const uint64_t room =
      backstop > buffer_.size() ? backstop - buffer_.size() : 1;
  const uint64_t share =
      (remaining * std::max<uint64_t>(1, staged) + room - 1) / room;
  const uint64_t budget =
      std::max<uint64_t>(options_.reorder_step_blocks, share);
  return StepChainLocked(budget, /*stall=*/true);
}

uint64_t ObliviousStore::ChainRemainingBlocksLocked() const {
  if (!ChainActiveLocked()) return 0;
  // reorder_ runs the front step; the others have not begun.
  uint64_t remaining = reorder_->remaining_blocks();
  for (size_t i = chain_.front + 1; i < chain_.count; ++i) {
    remaining += ReorderJob::PlannedBlocks(chain_.steps[i].inputs);
  }
  return remaining;
}

void ObliviousStore::UpdateChainGaugesLocked() {
  cells_.chain_pending_steps.Set(
      static_cast<double>(chain_.count - chain_.front));
  cells_.chain_remaining_blocks.Set(
      static_cast<double>(ChainRemainingBlocksLocked()));
}

}  // namespace steghide::oblivious
