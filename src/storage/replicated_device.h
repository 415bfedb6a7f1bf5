#ifndef STEGHIDE_STORAGE_REPLICATED_DEVICE_H_
#define STEGHIDE_STORAGE_REPLICATED_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/block_device.h"

namespace steghide::storage {

/// Mirroring policy knobs.
struct ReplicationOptions {
  /// Consecutive failed *reads* after which a replica is quarantined
  /// instead of merely failed over (transient hiccups stay in rotation).
  /// With `quorum` the same threshold applies to consecutive failed
  /// writes/flushes before a lagging replica is quarantined.
  int quarantine_after = 3;
  /// What a replica that misses a write or flush becomes. false
  /// (strict): it is quarantined at once, until a repair sweep
  /// re-mirrors it. true: it drops to *lagging*, keeps serving the
  /// blocks it still holds current, and is re-converged by read-repair.
  bool quorum = false;
  /// Acks (from healthy or lagging replicas) required for a write or
  /// flush to succeed. Clamped to [1, R].
  size_t write_quorum = 1;
  /// Replicas consulted per read before the search is counted as
  /// "widened" beyond the quorum. Clamped to [1, R].
  size_t read_quorum = 1;
};

enum class ReplicaState : uint8_t {
  kHealthy,
  kQuarantined,
  kRepairing,
  /// Reachable but missing some writes (e.g. the far side of a healed
  /// partition); only `quorum` mirrors have lagging replicas. Still
  /// serves reads for blocks it holds current, receives all new writes,
  /// and re-converges via read-repair or a repair sweep.
  kLagging,
};

/// Counter snapshot of the mirror's life so far.
struct ReplicationStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  /// Reads answered by a replica other than the first one tried.
  uint64_t failovers = 0;
  uint64_t quarantines = 0;
  uint64_t repairs_completed = 0;
  uint64_t repair_blocks = 0;
  /// Stale blocks pushed back to lagging replicas on the read path.
  uint64_t read_repairs = 0;
  /// Reads that had to consult replicas beyond the first read_quorum
  /// rotation candidates.
  uint64_t quorum_widened = 0;
  /// Blocks served from a replica that missed the latest write to them —
  /// this is data loss and must never happen while a write-quorum's
  /// worth of current replicas exists (hard-gated to zero in the
  /// benches).
  uint64_t quorum_stale_reads = 0;
  /// Writes and flushes that could not collect write_quorum acks.
  uint64_t write_quorum_failures = 0;
  size_t healthy_replicas = 0;
  size_t lagging_replicas = 0;
  /// Failover latency distribution (virtual ms), all quantiles from the
  /// same registry HistogramCell the metrics export reads.
  double failover_ms_max = 0.0;
  double failover_ms_mean = 0.0;
  double failover_ms_p50 = 0.0;
  double failover_ms_p99 = 0.0;
};

/// R-way mirrored block device with failover, quarantine, degraded-mode
/// serving, and incremental repair, all run by one versioned protocol:
///
///  * Writes go to every replica that is not quarantined and succeed on
///    write_quorum acks. The mirror remembers, per replica, each block
///    that replica missed (sparse: a healthy replica holds no entries).
///  * Reads rotate over the serving replicas; trying more than
///    read_quorum of them counts as widening. A replica that is current
///    for the whole batch serves it in one call; otherwise each block is
///    served by a replica current for that block, and only when none is
///    reachable is the newest stale copy served (and counted as data
///    loss). Fresh data read this way is pushed back to reachable
///    lagging replicas (read-repair).
///  * `ReplicationOptions::quorum` picks what a missed write or flush
///    does to a replica. Strict (the default): quarantine at once, so a
///    serving replica never lacks a block — write-all / read-one at the
///    default quorums of 1. Quorum: demote to *lagging*, which is what
///    lets a partitioned or crashed *remote* replica degrade service
///    instead of failing it, and re-converge byte-identically after
///    reconnect.
///
/// *Oblivious replication*: every choice this layer makes is
/// data-independent. The serving replica for a read is picked by a
/// rotation counter over the serving set (a function of the op count
/// and the fault history, never of block contents); the missed-block
/// records are functions of the (public) write pattern and fault
/// schedule; writes go to every serviceable replica in index order;
/// repair copies blocks in plain ascending order from a per-block
/// current source. An attacker tracing any single replica therefore
/// sees a stream whose shape depends only on the request pattern and the
/// (data-independent) fault schedule — pinned by the per-replica
/// distinguisher suites.
///
/// Threading: I/O entry points and RepairStep follow the single-issuer
/// contract (in the VolumeSet the sharded facade's caller issues them
/// all); replica_state()/healthy_count()/stats() are thread-safe
/// snapshots.
class ReplicatedBlockDevice : public BlockDevice {
 public:
  /// Does not take ownership of `replicas`, which must share one block
  /// size and outlive this object. All replicas start healthy and
  /// current.
  explicit ReplicatedBlockDevice(std::vector<BlockDevice*> replicas,
                                 ReplicationOptions options = {});

  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override;
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override;
  uint64_t num_blocks() const override { return num_blocks_; }
  size_t block_size() const override { return block_size_; }
  Status Flush() override;

  size_t replica_count() const { return replicas_.size(); }
  BlockDevice* replica(size_t r) { return replicas_[r]; }
  ReplicaState replica_state(size_t r) const {
    return static_cast<ReplicaState>(
        states_[r].load(std::memory_order_relaxed));
  }
  size_t healthy_count() const;
  size_t lagging_count() const;

  /// Manual quarantine (tests; an external health checker).
  void Quarantine(size_t r);

  /// Re-admits a quarantined or lagging replica for repair: it
  /// immediately receives all new writes (so the repaired prefix can
  /// never go stale) and a full sequential copy pass re-mirrors it. The
  /// caller must have revived/replaced the underlying device first.
  Status StartRepair(size_t r);
  /// Copies up to `budget_blocks` blocks into every repairing replica;
  /// *more = work remains. Completing the sweep promotes the replicas to
  /// healthy, but only once they lack no block — a sweep raced by
  /// failed live writes restarts.
  /// Fixed ascending scrub order: repair traffic is data-independent by
  /// construction.
  Status RepairStep(uint64_t budget_blocks, bool* more);
  bool repair_pending() const;
  /// Next block the repair sweep will copy (progress indicator).
  uint64_t repair_cursor() const { return repair_cursor_; }

  /// Number of blocks replica `r` missed a write to and has not been
  /// given since; 0 for a healthy replica. Frozen while the replica is
  /// quarantined (quarantined replicas receive no writes to miss) and
  /// reset by StartRepair. Issuer-thread only.
  uint64_t stale_blocks(size_t r) const { return missed_[r].size(); }

  /// Virtual-clock sampler for the failover latency histogram.
  void set_clock_fn(std::function<double()> fn) { clock_fn_ = std::move(fn); }

  ReplicationStats stats() const;
  void RegisterMetrics(obs::Registry* registry, const std::string& prefix);

 private:
  struct Cells {
    obs::CounterCell reads;
    obs::CounterCell writes;
    obs::CounterCell failovers;
    obs::CounterCell quarantines;
    obs::CounterCell repairs_completed;
    obs::CounterCell repair_blocks;
    obs::CounterCell read_repairs;
    obs::CounterCell quorum_widened;
    obs::CounterCell quorum_stale_reads;
    obs::CounterCell write_quorum_failures;
    obs::GaugeCell healthy_replicas;
    obs::GaugeCell lagging_replicas;
    obs::HistogramCell failover_ms;
  };
  static constexpr obs::StatRow<Cells, ReplicationStats> kStatRows[] = {
      {"reads", &Cells::reads, &ReplicationStats::reads},
      {"writes", &Cells::writes, &ReplicationStats::writes},
      {"failovers", &Cells::failovers, &ReplicationStats::failovers},
      {"quarantines", &Cells::quarantines, &ReplicationStats::quarantines},
      {"repairs_completed", &Cells::repairs_completed,
       &ReplicationStats::repairs_completed},
      {"repair_blocks", &Cells::repair_blocks,
       &ReplicationStats::repair_blocks},
      {"read_repairs", &Cells::read_repairs, &ReplicationStats::read_repairs},
      {"quorum_widened", &Cells::quorum_widened,
       &ReplicationStats::quorum_widened},
      {"quorum_stale_reads", &Cells::quorum_stale_reads,
       &ReplicationStats::quorum_stale_reads},
      {"write_quorum_failures", &Cells::write_quorum_failures,
       &ReplicationStats::write_quorum_failures},
  };

  void SetState(size_t r, ReplicaState state);
  void QuarantineLocked(size_t r);
  /// Serving (healthy and lagging) replicas in rotation order starting
  /// at the rr counter; a lagging replica's missed blocks gate what it
  /// serves. Returns false when the set is empty.
  bool ServingOrder(std::vector<size_t>* order);

  bool Current(size_t r, uint64_t id) const {
    return !missed_[r].contains(id);
  }
  bool CurrentForAll(size_t r, std::span<const uint64_t> ids) const;
  /// Records that `ids` landed on replica `r`.
  void MarkCurrent(size_t r, std::span<const uint64_t> ids);
  /// Orders replica `r`'s copy of `id` among the others: higher is newer.
  uint64_t CopyRank(size_t r, uint64_t id) const;
  void NoteReadFailure(size_t r);
  /// Demotion ladder for a failed write/flush on replica `r`.
  void NoteWriteFailure(size_t r);
  void MaybePromote(size_t r);
  /// Pushes the (current) blocks just read back to reachable lagging
  /// replicas. `served_current[i]` guards against propagating a stale
  /// fallback.
  void ReadRepair(std::span<const uint64_t> ids, const uint8_t* out,
                  const std::vector<bool>& served_current);

  std::vector<BlockDevice*> replicas_;
  ReplicationOptions options_;
  uint64_t num_blocks_;
  size_t block_size_;
  size_t write_quorum_ = 1;
  size_t read_quorum_ = 1;
  /// Atomic so a bench thread can poll degraded state mid-run.
  std::vector<std::atomic<uint8_t>> states_;
  /// Issuer-thread-only serving state.
  uint64_t rr_ = 0;
  std::vector<int> consecutive_read_errors_;
  std::vector<int> consecutive_write_errors_;
  uint64_t repair_cursor_ = 0;
  std::vector<uint8_t> repair_buf_;
  /// Per replica: each block it missed, mapped to the sequence number
  /// of the first write to it that it missed (issuer-thread only).
  std::vector<std::unordered_map<uint64_t, uint64_t>> missed_;
  uint64_t write_seq_ = 0;
  std::function<double()> clock_fn_;
  Cells cells_;
  obs::Registration registration_;
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_REPLICATED_DEVICE_H_
