#ifndef STEGHIDE_STORAGE_FAULT_DEVICE_H_
#define STEGHIDE_STORAGE_FAULT_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "storage/block_device.h"

namespace steghide::storage {

/// One scripted fault. A spec is *data-independent by construction*: it
/// triggers on the per-block operation index, the block address, and the
/// plan seed — never on block contents — so a faulted run's error/latency
/// pattern is identical across request streams that issue the same
/// (op, block) sequence. That is what lets the trace-equivalence suites
/// pin obliviousness with fault injection enabled.
struct FaultSpec {
  enum class Kind : uint8_t {
    /// The matching op fails with kIoError; a retry is a *new* op index,
    /// so (unless the trigger matches again) it succeeds.
    kTransientError,
    /// Once triggered, every later op touching [first_block, last_block]
    /// with a matching direction fails forever (a bad sector / region).
    kStickyError,
    /// The matching read succeeds but returns seeded byte flips
    /// (silent bit-rot: Status stays OK).
    kCorrupt,
    /// The matching write persists only a seeded-length prefix of the
    /// block's bytes, then fails — a torn sector. Firing mid-way through
    /// a vectored write additionally leaves the batch itself partially
    /// persisted (earlier blocks durable, later ones not).
    kTorn,
    /// The matching op succeeds after charging `latency_ms` through the
    /// latency hook (e.g. a sick spindle's retry-and-recover stalls).
    kLatency,
    /// The whole device dies at the trigger: every later op fails until
    /// Revive() is called.
    kDeath,
    /// Transport-layer kinds, interpreted by TransportFaultController
    /// (storage/remote/transport.h) against the RPC frame stream rather
    /// than the block-op stream. At the block layer they are no-ops, so
    /// one FaultPlan can script both layers of a replica.
    ///
    /// The link drops every frame from the trigger on (both directions
    /// fail fast with kDeadlineExceeded) until Heal() is called — a
    /// network partition.
    kPartition,
    /// The matching frame is delivered after charging `latency_ms`
    /// through the latency hook — a slow or congested link.
    kDelayRpc,
    /// The connection is closed under the matching frame; in-flight and
    /// later ops on it fail with kIoError until the client reconnects.
    kDropConnection,
  };
  enum class OpFilter : uint8_t { kAny, kRead, kWrite };

  Kind kind = Kind::kTransientError;
  OpFilter ops = OpFilter::kAny;
  /// Inclusive local-block range the spec applies to.
  uint64_t first_block = 0;
  uint64_t last_block = std::numeric_limits<uint64_t>::max();
  /// Op-count trigger: fires on op indices i >= start_after with
  /// (i - start_after) % every_nth == 0 (every_nth 0 behaves like 1).
  uint64_t every_nth = 1;
  uint64_t start_after = 0;
  /// Total firing cap (0 = unlimited). A transient spec with
  /// max_fires = 1 is "this op fails exactly once".
  uint64_t max_fires = 0;
  /// Extra virtual milliseconds for kLatency.
  double latency_ms = 0.0;

  /// Whether op (or frame) `index` fires the spec, which has fired
  /// `fires` times so far.
  bool Triggers(uint64_t index, uint64_t fires) const {
    const uint64_t nth = every_nth == 0 ? 1 : every_nth;
    return index >= start_after && (index - start_after) % nth == 0 &&
           (max_fires == 0 || fires < max_fires);
  }
};

/// A seeded, scriptable fault schedule.
struct FaultPlan {
  std::vector<FaultSpec> faults;
  /// Drives the corruption/torn byte patterns (deterministic per
  /// (seed, op index, block)).
  uint64_t seed = 0;
};

/// Counter snapshot of everything the device injected.
struct FaultStats {
  uint64_t ops = 0;
  uint64_t injected_errors = 0;
  uint64_t corrupted_blocks = 0;
  uint64_t torn_writes = 0;
  uint64_t latency_events = 0;
};

/// Decorator that executes a FaultPlan against the op stream flowing into
/// `backing`. Composable anywhere in the decorator stack (typically
/// directly above the leaf, below the trace/sim layers, so an injected
/// failure never reaches the platter or the attacker trace).
///
/// Threading: follows the single-issuer contract of block_device.h for
/// all I/O entry points; only Kill()/Revive()/dead() and the stats
/// snapshot are thread-safe (a bench thread can pull the plug while the
/// issuer is mid-run).
class FaultInjectionBlockDevice : public BlockDevice {
 public:
  /// Does not take ownership of `backing`.
  explicit FaultInjectionBlockDevice(BlockDevice* backing,
                                     FaultPlan plan = {});

  /// Per-block issue in submission order: every block consumes its own
  /// op index, so "every Nth op" plans see a batch of n blocks and n
  /// one-block calls identically. A mid-batch failure leaves the earlier
  /// blocks done — for writes, the torn *batch* the retry and replication
  /// layers must cope with.
  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override;
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override;
  uint64_t num_blocks() const override { return backing_->num_blocks(); }
  size_t block_size() const override { return backing_->block_size(); }
  Status Flush() override;

  /// Whole-device death, independent of the plan (a bench kills one
  /// replica mid-run). Thread-safe.
  void Kill() { dead_.store(true, std::memory_order_relaxed); }
  /// Clears manual *and* plan-triggered death. Thread-safe.
  void Revive() { dead_.store(false, std::memory_order_relaxed); }
  bool dead() const { return dead_.load(std::memory_order_relaxed); }

  /// Sink for kLatency charges (typically DiskModel::AdvanceClock of the
  /// sim layer above). Unset = latency specs only count.
  void set_latency_fn(std::function<void(double)> fn) {
    latency_fn_ = std::move(fn);
  }

  FaultStats stats() const {
    FaultStats s;
    s.ops = cells_.ops.value();
    s.injected_errors = cells_.injected_errors.value();
    s.corrupted_blocks = cells_.corrupted_blocks.value();
    s.torn_writes = cells_.torn_writes.value();
    s.latency_events = cells_.latency_events.value();
    return s;
  }
  void RegisterMetrics(obs::Registry* registry, const std::string& prefix);

  BlockDevice* backing() { return backing_; }

 private:
  struct SpecState {
    bool latched = false;  // sticky region tripped
    uint64_t fires = 0;
  };
  struct Cells {
    obs::CounterCell ops;
    obs::CounterCell injected_errors;
    obs::CounterCell corrupted_blocks;
    obs::CounterCell torn_writes;
    obs::CounterCell latency_events;
  };

  /// One physical block op: checks the range, consumes an op index,
  /// evaluates the plan, forwards to the backing device when allowed.
  /// Exactly one of out/data is non-null.
  Status Op(uint64_t block_id, uint8_t* out, const uint8_t* data);
  /// Deterministic per-(seed, op, block) byte stream for corruption and
  /// torn lengths.
  uint64_t Mix(uint64_t op_index, uint64_t block_id) const;

  BlockDevice* backing_;
  FaultPlan plan_;
  std::vector<SpecState> states_;
  uint64_t op_index_ = 0;
  std::atomic<bool> dead_{false};
  std::function<void(double)> latency_fn_;
  Cells cells_;
  obs::Registration registration_;
  std::vector<uint8_t> scratch_;  // torn-write staging
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_FAULT_DEVICE_H_
