#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "agent/oblivious_agent.h"
#include "obs/trace_log.h"
#include "reference.h"
#include "stegfs/stegfs_core.h"
#include "storage/mem_block_device.h"
#include "storage/sim_device.h"
#include "storage/volume_set.h"
#include "timing_device.h"
#include "util/result.h"

namespace perfbench {

/// The population every workload serves: 1024 hidden files of 16 blocks
/// under a store buffer of B = 32 blocks (a 9-level hierarchy).
inline constexpr uint32_t kFiles = 1024;
inline constexpr uint32_t kFileBlocks = 16;
inline constexpr uint32_t kBlocks = kFiles * kFileBlocks;
inline constexpr uint64_t kBufferBlocks = 32;

struct SystemConfig {
  uint64_t seed = 1;
  /// Deamortized (chained) re-orders; false keeps the store's default
  /// blocking schedule.
  bool deamortize = false;
  /// Cache striped over 4 shards x 2 quorum mirrors (W = R = 1), with
  /// shard 0's second mirror behind the loopback block-RPC transport.
  bool replicated = false;
  /// Splice TimingBlockDevice decorators at the device seams and hand
  /// `trace` to the store and the remote client. Null = bare stack.
  steghide::obs::TraceLog* trace = nullptr;
};

/// The Section-5 system (StegFS partition + oblivious cache) built through
/// the public constructors, formatted, populated from the reference
/// model's version-0 contents, and prewarmed.
///
/// Device stacks, bottom up:
///   StegFS partition: Mem -> Sim -> [dev.steg timer] -> StegFsCore
///   single cache:     Mem -> Sim -> [dev.cache timer] -> store
///   replicated cache: VolumeSet shard tops -> [one dev.cache timer per
///                     shard] -> ShardedBlockDevice -> store
/// With a trace the replicated stack gets its own ShardedBlockDevice over
/// the timed shard tops: a decorator above the facade would hide the
/// facade's type from the store, which then falls back to a single-device
/// scheduler. Without a trace it uses the VolumeSet's own facade.
class System {
 public:
  using FileId = steghide::agent::ObliviousAgent::FileId;

  static steghide::Result<std::unique_ptr<System>> Build(
      const SystemConfig& config, const ReferenceModel& reference);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  steghide::agent::ObliviousAgent& agent() { return *agent_; }
  FileId file_of(uint32_t block) const { return files_[block / kFileBlocks]; }
  uint64_t offset_of(uint32_t block) const {
    return static_cast<uint64_t>(block % kFileBlocks) * payload_;
  }
  size_t payload() const { return payload_; }

  /// Summed virtual disk clocks (StegFS spindle + cache; the sharded
  /// cache contributes its parallel clock).
  double clock_ms() const;

  /// Device bytes provisioned across every volume and replica.
  uint64_t provisioned_bytes() const { return provisioned_bytes_; }

  /// Every simulated spindle: [0] is the StegFS partition, then the cache
  /// spindles in (shard, replica) order.
  std::vector<steghide::storage::SimBlockDevice*> sims() const;
  /// Cache spindles grouped by shard (one group for the single volume).
  std::vector<std::vector<steghide::storage::SimBlockDevice*>> cache_shards()
      const;

  /// Timing decorators (null / empty for a bare stack).
  TimingBlockDevice* steg_timer() { return steg_timer_.get(); }
  std::vector<TimingBlockDevice*> cache_timers();

  /// Null unless replicated.
  steghide::storage::VolumeSet* volumes() { return volumes_.get(); }

 private:
  System() = default;

  size_t payload_ = 0;
  uint64_t provisioned_bytes_ = 0;
  // Declaration order is construction order; teardown runs in reverse, so
  // the agent goes first and the backing memory last.
  std::unique_ptr<steghide::storage::MemBlockDevice> steg_mem_;
  std::unique_ptr<steghide::storage::SimBlockDevice> steg_sim_;
  std::unique_ptr<TimingBlockDevice> steg_timer_;
  std::unique_ptr<steghide::storage::MemBlockDevice> cache_mem_;
  std::unique_ptr<steghide::storage::SimBlockDevice> cache_sim_;
  std::unique_ptr<steghide::storage::VolumeSet> volumes_;
  std::vector<std::unique_ptr<TimingBlockDevice>> cache_timers_;
  std::unique_ptr<steghide::storage::ShardedBlockDevice> timed_facade_;
  steghide::storage::ShardedBlockDevice* facade_ = nullptr;
  std::unique_ptr<steghide::stegfs::StegFsCore> core_;
  std::unique_ptr<steghide::agent::ObliviousAgent> agent_;
  std::vector<FileId> files_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
