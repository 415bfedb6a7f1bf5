#ifndef STEGHIDE_STORAGE_VOLUME_SET_H_
#define STEGHIDE_STORAGE_VOLUME_SET_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "util/result.h"

#include "obs/trace_log.h"
#include "storage/block_device.h"
#include "storage/fault_device.h"
#include "storage/mem_block_device.h"
#include "storage/remote/block_server.h"
#include "storage/remote/remote_device.h"
#include "storage/remote/transport.h"
#include "storage/replicated_device.h"
#include "storage/sim_device.h"
#include "storage/trace_device.h"

namespace steghide::storage {

/// Stripes a flat block space across K backing volumes, block-granular
/// round-robin: global block g lives on shard g % K at local offset
/// g / K. A sequence of ascending global ids therefore maps to ascending
/// (and for stride-K runs, sequential) local ids on every shard, which
/// preserves the rotational-disk locality the elevator schedule creates.
///
/// Every call runs each involved shard's part on the calling thread, in
/// shard order: a call is split by stripe, each shard sees its part as
/// one call in submission order, every involved shard is issued even
/// after one fails, and the first error in shard order is returned.
/// The facade follows the single-issuer contract of block_device.h, and
/// its caller is the sole issuer of every shard below it.
///
/// Virtual time: with a per-shard clock sampler installed (normally each
/// shard's SimBlockDevice clock), the facade maintains a parallel virtual
/// clock — each call advances it by the *maximum* per-shard clock delta,
/// i.e. the slowest spindle, not the sum, as if the shards had seeked
/// concurrently. This is the clock the sharded benchmarks measure.
class ShardedBlockDevice : public BlockDevice {
 public:
  /// Does not take ownership of `shards`, which must all outlive this
  /// object, share one block size, and be non-empty.
  explicit ShardedBlockDevice(std::vector<BlockDevice*> shards);

  using BlockDevice::ReadBlocks;

  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override;
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override;
  uint64_t num_blocks() const override { return num_blocks_; }
  size_t block_size() const override { return block_size_; }
  Status Flush() override;

  size_t shard_count() const { return shards_.size(); }
  BlockDevice* shard(size_t k) { return shards_[k]; }

  uint64_t ShardOf(uint64_t block_id) const {
    return block_id % shards_.size();
  }
  uint64_t LocalBlock(uint64_t block_id) const {
    return block_id / shards_.size();
  }
  uint64_t GlobalBlock(size_t shard, uint64_t local) const {
    return local * shards_.size() + shard;
  }

  /// Installs the per-shard virtual-clock sampler feeding the parallel
  /// clock (typically `[&](size_t k) { return sims[k]->clock_ms(); }`).
  void set_shard_clock_fn(std::function<double(size_t)> fn) {
    shard_clock_ = std::move(fn);
  }
  /// Parallel virtual clock: sum over calls of the max per-shard delta.
  /// Zero when no sampler is installed.
  double clock_ms() const {
    return clock_ms_.load(std::memory_order_relaxed);
  }

  /// Runs `part(k)` for every shard k in ascending order on the calling
  /// thread and charges the parallel clock once, with the largest
  /// per-shard clock delta. Every part runs even after one fails; returns
  /// the first error in shard order. A part with no work for its shard
  /// returns OK without touching it. The built-in I/O and
  /// VolumeSet::PumpRepair both go through here.
  template <typename Part>
  Status RunOnShards(Part&& part) {
    Status first;
    double max_delta = 0.0;
    for (size_t k = 0; k < shards_.size(); ++k) {
      const double before = ShardClock(k);
      Status status = part(k);
      max_delta = std::max(max_delta, ShardClock(k) - before);
      if (first.ok()) first = std::move(status);
    }
    // Only the issuer mutates the clock; concurrent readers (latency
    // stamps on other threads) see a torn-free atomic value.
    clock_ms_.store(clock_ms_.load(std::memory_order_relaxed) + max_delta,
                    std::memory_order_relaxed);
    return first;
  }

  /// Attaches a trace log: the part of every call, single-block calls
  /// included, that reaches shard k is one "io.drain" span (arg `reqs`:
  /// its block count) on track "io/shard<k>", so the shards of one sweep
  /// render as separate lanes. Null detaches. Call before any I/O.
  void set_trace(obs::TraceLog* log);

 private:
  /// Shared fan-out: exactly one of `out` / `data` is non-null.
  Status FanOut(std::span<const uint64_t> ids, uint8_t* out,
                const uint8_t* data);
  double ShardClock(size_t k) const {
    return shard_clock_ ? shard_clock_(k) : 0.0;
  }

  std::vector<BlockDevice*> shards_;
  uint64_t num_blocks_;
  size_t block_size_;
  std::function<double(size_t)> shard_clock_;
  std::atomic<double> clock_ms_{0.0};
  obs::TraceLog* trace_ = nullptr;
  std::vector<uint32_t> shard_tracks_;  // indexed by shard
  // Per-call scratch, reused: each shard's local ids and caller
  // positions, and one staging buffer the shards take in turn.
  std::vector<std::vector<uint64_t>> split_local_;
  std::vector<std::vector<size_t>> split_pos_;
  std::vector<uint8_t> staging_;
};

/// Owns a ready-to-use sharded simulation stack for benchmarks and
/// tests: K shards of R mirrored replicas, each replica a
/// MemBlockDevice optionally wrapped in a FaultInjectionBlockDevice
/// (scripted spindle faults) and a TraceBlockDevice (per-replica
/// attacker view), always in a SimBlockDevice with its own DiskModel
/// clock. With R > 1 each shard's replicas sit behind a
/// ReplicatedBlockDevice (failover, quarantine or lagging, repair; see
/// Options::replication); the shard tops are striped by a
/// ShardedBlockDevice whose parallel clock samples the busiest replica
/// of each shard.
class VolumeSet {
 public:
  struct Options {
    size_t shards = 4;
    /// Mirrored replicas per shard (1 = the plain striped layout).
    size_t replicas = 1;
    /// Global capacity; each shard gets ceil(total_blocks / shards).
    uint64_t total_blocks = 0;
    size_t block_size = kDefaultBlockSize;
    /// Insert a TraceBlockDevice above each replica's fault layer.
    bool traced = false;
    /// Insert a FaultInjectionBlockDevice at the bottom of every
    /// replica's stack, scripted per (shard, replica). Null = no fault
    /// layer. Return an empty plan for replicas that should only be
    /// killable by hand (Kill()/Revive()).
    std::function<FaultPlan(size_t shard, size_t replica)> fault_plan;
    /// Mirroring knobs (replicas > 1 only). The default is a strict
    /// write-all / read-one mirror.
    ReplicationOptions replication;
    /// Per-shard spindle parameters (every replica gets its own clock).
    DiskModelParams disk;
    /// Marks replicas served over the loopback block-RPC transport: the
    /// replica's whole local stack moves behind a LoopbackEndpoint (its
    /// server thread becomes the sole issuer) and the mirror talks to a
    /// RemoteBlockDevice client instead. Null = every replica local.
    std::function<bool(size_t shard, size_t replica)> remote;
    /// Transport-layer fault schedule per remote replica (kPartition /
    /// kDelayRpc / kDropConnection specs; block-layer kinds in the plan
    /// are ignored here). Null = clean links.
    std::function<FaultPlan(size_t shard, size_t replica)>
        transport_fault_plan;
    /// Client-side RPC knobs shared by every remote replica.
    remote::RemoteDeviceOptions remote_options;
  };

  explicit VolumeSet(const Options& options);

  ShardedBlockDevice& device() { return *device_; }
  size_t shard_count() const { return shards_; }
  size_t replica_count() const { return replicas_; }
  MemBlockDevice& mem(size_t k, size_t r = 0) { return *mems_[Slot(k, r)]; }
  SimBlockDevice& sim(size_t k, size_t r = 0) { return *sims_[Slot(k, r)]; }
  /// Null when Options::traced was false.
  TraceBlockDevice* trace(size_t k, size_t r = 0) {
    return traces_.empty() ? nullptr : traces_[Slot(k, r)].get();
  }
  /// Null when Options::fault_plan was null.
  FaultInjectionBlockDevice* fault(size_t k, size_t r = 0) {
    return faults_.empty() ? nullptr : faults_[Slot(k, r)].get();
  }
  /// Null when replicas == 1.
  ReplicatedBlockDevice* replicated(size_t k) {
    return reps_.empty() ? nullptr : reps_[k].get();
  }
  /// Remote-replica plumbing; all null unless Options::remote marked
  /// (k, r) as remote.
  remote::RemoteBlockDevice* remote_device(size_t k, size_t r) {
    return remotes_.empty() ? nullptr : remotes_[Slot(k, r)].get();
  }
  remote::LoopbackEndpoint* remote_endpoint(size_t k, size_t r) {
    return endpoints_.empty() ? nullptr : endpoints_[Slot(k, r)].get();
  }
  remote::TransportFaultController* transport_fault(size_t k, size_t r) {
    return tfaults_.empty() ? nullptr : tfaults_[Slot(k, r)].get();
  }
  bool is_remote(size_t k, size_t r) const {
    return !remotes_.empty() && remotes_[Slot(k, r)] != nullptr;
  }
  /// The facade's parallel virtual clock (max-delta over joins).
  double clock_ms() const { return device_->clock_ms(); }

  /// Pulls the plug on one replica (thread-safe; requires fault_plan).
  void KillReplica(size_t k, size_t r) { fault(k, r)->Kill(); }
  /// Black-holes a remote replica's link until HealReplica: every RPC
  /// fails fast with kDeadlineExceeded and in-flight transfers are
  /// severed (thread-safe; requires a remote replica).
  void PartitionReplica(size_t k, size_t r) {
    transport_fault(k, r)->Partition();
  }
  void HealReplica(size_t k, size_t r) { transport_fault(k, r)->Heal(); }
  /// The remote host dies mid-whatever-it-was-doing; the backing volume
  /// keeps its durable state (thread-safe; requires a remote replica).
  void CrashReplica(size_t k, size_t r) { remote_endpoint(k, r)->Crash(); }
  /// Revives the replica's device — fault layer, crashed endpoint, and
  /// partitioned link alike — and re-admits it to shard k's mirror for
  /// repair (requires replicas > 1).
  Status ReviveAndRepair(size_t k, size_t r);

  /// Any shard still owing repair copy work?
  bool repair_pending() const;
  /// Advances every shard's repair sweep by up to `budget_blocks`
  /// blocks, shard by shard on the calling thread, with one
  /// parallel-clock charge like a serving call (the caller must be the
  /// device's single issuer). Returns whether repair work remains.
  Result<bool> PumpRepair(uint64_t budget_blocks);

  /// Registers per-replica sim counters under "<prefix>.shard<k>.r<r>",
  /// per-shard replication health under "<prefix>.shard<k>", fault
  /// counters under "<prefix>.shard<k>.r<r>.fault", and remote-replica
  /// plumbing under "<prefix>.shard<k>.r<r>.{remote,transport,server}".
  void RegisterMetrics(obs::Registry* registry, const std::string& prefix);

 private:
  size_t Slot(size_t k, size_t r) const { return k * replicas_ + r; }
  /// Moves the freshly built local stack of (k, r) behind a loopback
  /// endpoint and returns the RemoteBlockDevice client that replaces it
  /// as the replica top.
  BlockDevice* MakeRemote(size_t k, size_t r, BlockDevice* backing,
                          const Options& options);

  size_t shards_ = 0;
  size_t replicas_ = 1;
  // Declaration order is teardown order in reverse: the sharded facade
  // dies first, then the mirrors, then the RPC clients, then the
  // endpoints (joining their server threads), then the fault controllers
  // their wrappers point into, and only then the local stacks everything
  // was backed by.
  std::vector<std::unique_ptr<MemBlockDevice>> mems_;
  std::vector<std::unique_ptr<FaultInjectionBlockDevice>> faults_;
  std::vector<std::unique_ptr<TraceBlockDevice>> traces_;
  std::vector<std::unique_ptr<SimBlockDevice>> sims_;
  std::vector<std::unique_ptr<remote::TransportFaultController>> tfaults_;
  std::vector<std::unique_ptr<remote::LoopbackEndpoint>> endpoints_;
  std::vector<std::unique_ptr<remote::RemoteBlockDevice>> remotes_;
  std::vector<std::unique_ptr<ReplicatedBlockDevice>> reps_;
  std::unique_ptr<ShardedBlockDevice> device_;
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_VOLUME_SET_H_
