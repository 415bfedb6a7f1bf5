#include "system.h"

#include <algorithm>
#include <string>
#include <utility>

namespace perfbench {

namespace sh = steghide;
namespace storage = steghide::storage;

sh::Result<std::unique_ptr<System>> System::Build(
    const SystemConfig& config, const ReferenceModel& reference) {
  std::unique_ptr<System> sys(new System());
  const bool timed = config.trace != nullptr;

  uint64_t capacity = 2 * kBufferBlocks;
  while (capacity < kBlocks) capacity *= 2;
  const uint64_t hierarchy = 2 * capacity - 2 * kBufferBlocks;

  // StegFS partition: room for the files, their relocation pool and slack.
  const uint64_t steg_blocks = uint64_t{kBlocks} * 2 + 8192;
  sys->steg_mem_ = std::make_unique<storage::MemBlockDevice>(
      steg_blocks, storage::kDefaultBlockSize);
  sys->steg_sim_ = std::make_unique<storage::SimBlockDevice>(
      sys->steg_mem_.get(), storage::DiskModelParams{});
  storage::BlockDevice* steg_device = sys->steg_sim_.get();
  if (timed) {
    sys->steg_timer_ = std::make_unique<TimingBlockDevice>(steg_device, true);
    steg_device = sys->steg_timer_.get();
  }
  sys->provisioned_bytes_ = steg_blocks * storage::kDefaultBlockSize;

  // Under the g % K stripe a one-block shadow offset puts every slot's
  // ping-pong twin on another spindle than its primary.
  const uint64_t shadow_shift = config.replicated ? 1 : 0;
  const uint64_t cache_blocks = hierarchy + capacity +
                                (config.deamortize ? hierarchy : 0) +
                                2 * shadow_shift + 16;
  storage::BlockDevice* cache_device = nullptr;
  if (config.replicated) {
    storage::VolumeSet::Options vopts;
    vopts.shards = 4;
    vopts.replicas = 2;
    vopts.total_blocks = cache_blocks;
    vopts.replication.quorum = true;
    vopts.replication.write_quorum = 1;
    vopts.replication.read_quorum = 1;
    vopts.remote = [](size_t k, size_t r) { return k == 0 && r == 1; };
    sys->volumes_ = std::make_unique<storage::VolumeSet>(vopts);
    storage::VolumeSet* volumes = sys->volumes_.get();
    for (size_t k = 0; k < volumes->shard_count(); ++k) {
      for (size_t r = 0; r < volumes->replica_count(); ++r) {
        sys->provisioned_bytes_ +=
            volumes->mem(k, r).num_blocks() * volumes->mem(k, r).block_size();
      }
    }
    sys->facade_ = &volumes->device();
    if (timed) {
      std::vector<storage::BlockDevice*> tops;
      for (size_t k = 0; k < volumes->shard_count(); ++k) {
        sys->cache_timers_.push_back(std::make_unique<TimingBlockDevice>(
            volumes->device().shard(k), false));
        tops.push_back(sys->cache_timers_.back().get());
      }
      sys->timed_facade_ =
          std::make_unique<storage::ShardedBlockDevice>(std::move(tops));
      // Same parallel clock as the VolumeSet facade: the busiest replica
      // of each shard.
      sys->timed_facade_->set_shard_clock_fn([volumes](size_t k) {
        double ms = 0.0;
        for (size_t r = 0; r < volumes->replica_count(); ++r) {
          ms = std::max(ms, volumes->sim(k, r).clock_ms());
        }
        return ms;
      });
      sys->facade_ = sys->timed_facade_.get();
      volumes->remote_device(0, 1)->set_trace(config.trace);
    }
    cache_device = sys->facade_;
  } else {
    sys->cache_mem_ = std::make_unique<storage::MemBlockDevice>(
        cache_blocks, storage::kDefaultBlockSize);
    sys->cache_sim_ = std::make_unique<storage::SimBlockDevice>(
        sys->cache_mem_.get(), storage::DiskModelParams{});
    cache_device = sys->cache_sim_.get();
    if (timed) {
      sys->cache_timers_.push_back(
          std::make_unique<TimingBlockDevice>(cache_device, true));
      cache_device = sys->cache_timers_.back().get();
    }
    sys->provisioned_bytes_ += cache_blocks * storage::kDefaultBlockSize;
  }

  sys->core_ = std::make_unique<sh::stegfs::StegFsCore>(
      steg_device, sh::stegfs::StegFsOptions{config.seed, true});
  STEGHIDE_RETURN_IF_ERROR(sys->core_->Format());
  sys->payload_ = sys->core_->payload_size();
  if (sys->payload_ != reference.payload()) {
    return sh::Status::InvalidArgument("reference payload size mismatch");
  }

  sh::oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = kBufferBlocks;
  opts.capacity_blocks = capacity;
  opts.partition_base = 0;
  opts.shadow_base = hierarchy + shadow_shift;
  opts.scratch_base =
      config.deamortize ? 2 * hierarchy + 2 * shadow_shift : hierarchy;
  opts.deamortize_reorders = config.deamortize;
  opts.drbg_seed = config.seed ^ 0x6f626c69;
  // charge_index_io stays off: its index-rebuild charge writes zero blocks
  // over the first slots of every rebuilt level
  // (ObliviousStore::ChargeIndexRebuild), destroying the records stored
  // there, which the reference check reports as corrupted reads.
  opts.trace = config.trace;
  STEGHIDE_ASSIGN_OR_RETURN(
      sys->agent_,
      sh::agent::ObliviousAgent::Create(sys->core_.get(), cache_device, opts));
  System* raw = sys.get();
  sys->agent_->store().set_clock_fn([raw] { return raw->clock_ms(); });

  // Relocation pool for the Figure-6 updates, provisioned in
  // maximum-file-size chunks.
  constexpr uint64_t kChunk = 8192;
  for (uint64_t left = kBlocks + 2048; left > 0;) {
    const uint64_t take = std::min(left, kChunk);
    auto dummy = sys->agent_->CreateDummyFile("bench", take);
    if (!dummy.ok()) return dummy.status();
    left -= take;
  }

  const size_t payload = sys->payload_;
  sh::Bytes data(size_t{kFileBlocks} * payload);
  for (uint32_t f = 0; f < kFiles; ++f) {
    STEGHIDE_ASSIGN_OR_RETURN(FileId id,
                              sys->agent_->CreateHiddenFile("bench"));
    for (uint32_t b = 0; b < kFileBlocks; ++b) {
      reference.Fill(f * kFileBlocks + b, 0, data.data() + b * payload);
    }
    STEGHIDE_RETURN_IF_ERROR(sys->agent_->Write(id, 0, data));
    sys->files_.push_back(id);
  }
  // Prewarm: one read of every file moves every block into the cache
  // (the Figure 8(a) miss-fill path), so serving is pure level scans.
  for (uint32_t f = 0; f < kFiles; ++f) {
    STEGHIDE_ASSIGN_OR_RETURN(
        sh::Bytes got, sys->agent_->Read(sys->files_[f], 0, data.size()));
    for (uint32_t b = 0; b < kFileBlocks; ++b) {
      reference.Fill(f * kFileBlocks + b, 0, data.data() + b * payload);
    }
    if (got != data) {
      return sh::Status::Corruption("prewarm read of file " + std::to_string(f) +
                                  " differs from the reference");
    }
  }
  return sys;
}

double System::clock_ms() const {
  return steg_sim_->clock_ms() +
         (facade_ != nullptr ? facade_->clock_ms() : cache_sim_->clock_ms());
}

std::vector<storage::SimBlockDevice*> System::sims() const {
  std::vector<storage::SimBlockDevice*> out{steg_sim_.get()};
  for (const auto& shard : cache_shards()) {
    out.insert(out.end(), shard.begin(), shard.end());
  }
  return out;
}

std::vector<std::vector<storage::SimBlockDevice*>> System::cache_shards()
    const {
  if (volumes_ == nullptr) return {{cache_sim_.get()}};
  std::vector<std::vector<storage::SimBlockDevice*>> out;
  for (size_t k = 0; k < volumes_->shard_count(); ++k) {
    out.emplace_back();
    for (size_t r = 0; r < volumes_->replica_count(); ++r) {
      out.back().push_back(&volumes_->sim(k, r));
    }
  }
  return out;
}

std::vector<TimingBlockDevice*> System::cache_timers() {
  std::vector<TimingBlockDevice*> out;
  for (const auto& timer : cache_timers_) out.push_back(timer.get());
  return out;
}

}  // namespace perfbench
