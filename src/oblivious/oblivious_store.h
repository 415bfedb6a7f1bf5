#ifndef STEGHIDE_OBLIVIOUS_OBLIVIOUS_STORE_H_
#define STEGHIDE_OBLIVIOUS_OBLIVIOUS_STORE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/cbc.h"
#include "crypto/drbg.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "oblivious/level.h"
#include "oblivious/merge_sort.h"
#include "oblivious/reorder_job.h"
#include "stegfs/block_codec.h"
#include "storage/block_device.h"
#include "storage/retry_device.h"
#include "storage/thread_check.h"
#include "util/result.h"

namespace steghide::storage {

/// Counters of the store's scan I/O (ObliviousStore::io_stats()). The
/// name and the storage namespace predate the single I/O path and are
/// kept for the code that reads them.
struct IoSchedulerStats {
  /// Blocks read by scan sweeps.
  uint64_t physical_reads = 0;
  /// Blocks written by scan sweeps: always 0, scans only read. Re-order
  /// writes count in ObliviousStats::reorder_writes.
  uint64_t physical_writes = 0;
  /// Scan sweeps, each one vectored read.
  uint64_t drains = 0;
  /// Whole-call re-drives of any store I/O after a kIoError
  /// (ObliviousStoreOptions::io_retry), and the calls that burned the
  /// whole budget.
  uint64_t retries = 0;
  uint64_t retry_exhausted = 0;
  /// Blocks per sweep, p99 over the store's lifetime.
  double queue_depth_p99 = 0.0;
};

}  // namespace steghide::storage

namespace steghide::oblivious {

struct ObliviousStoreOptions {
  /// Agent buffer size B, in blocks.
  uint64_t buffer_blocks = 16;
  /// Last-level size N, in blocks. Must be buffer_blocks * 2^k for some
  /// k >= 1; the hierarchy then has k levels of sizes 2B, 4B, ..., N and
  /// occupies 2N - 2B device blocks.
  uint64_t capacity_blocks = 1024;
  /// First device block of the level hierarchy.
  uint64_t partition_base = 0;
  /// First device block of the sort (scratch) partition; needs
  /// capacity_blocks blocks and must not overlap the hierarchy.
  uint64_t scratch_base = 0;
  /// Seed for the store's DRBG (the key sealing every record, IVs,
  /// shuffle tags, dummy-probe slots).
  uint64_t drbg_seed = 7;
  /// Ablation: model the §5.1.2 variant whose per-level hash indices are
  /// too big for agent memory and live, encrypted, "in the front of the
  /// corresponding level". When set, every level scan pass pays one extra
  /// index-block read — shared by every request in the pass, which is
  /// where batching changes the overhead *factor* — and every re-order
  /// pays sequential index writes.
  bool charge_index_io = false;

  // ---- Re-order schedule --------------------------------------------------

  /// Re-order schedule. Every flush/dump cascade is planned as a chain of
  /// resumable ReorderJobs; this picks how the chain runs. Off (the
  /// blocking schedule): the triggering op drains the chain, each job
  /// rebuilding its level in place. On: the jobs build each level's next
  /// permutation in its shadow region while scans keep probing the old
  /// one, with an atomic flip at completion. Work is then advanced by
  /// StepReorder() (the dispatcher's idle pump), self-paced serving
  /// taxes, and a hard drain backstop, so serving never stalls behind a
  /// whole rebuild. Stores with fewer than 3 levels always block.
  bool deamortize_reorders = false;
  /// First device block of the shadow mirror: a second hierarchy-shaped
  /// region (2N - 2B blocks, per-level offsets matching the primary) the
  /// double-buffered rebuilds ping-pong with. Required when
  /// deamortize_reorders; must not overlap hierarchy or scratch.
  uint64_t shadow_base = 0;
  /// Floor for the per-call Step budget (device block I/Os). The serving
  /// tax self-paces above this floor: remaining chain work is spread
  /// evenly over the stagings left before the hard flush backstop.
  uint64_t reorder_step_blocks = 64;
  /// Keep flush trigger points identical to the blocking schedule: when
  /// a flush fires while a chain is still running, drain it synchronously
  /// instead of deferring. Costs the coalescing win; used by the
  /// trace-equivalence tests, which pin per-level touch counts against
  /// the blocking schedule request by request.
  bool strict_reorder_schedule = false;

  // ---- Fault tolerance ----------------------------------------------------

  /// Optional retry budget for device I/O: every store call — scan
  /// sweeps, re-orders, merges and index charges alike — goes through
  /// one RetryingBlockDevice that re-drives a call failing with kIoError
  /// whole, up to max_attempts total tries. Retries are counted in
  /// io_stats().retries and traced as "io.retry" instants. Retry timing
  /// depends only on which physical ops fail — fault-plan territory, not
  /// record contents — so the pattern argument is unchanged. Nullopt =
  /// fail fast.
  std::optional<storage::RetryPolicy> io_retry;

  // ---- Observability ------------------------------------------------------

  /// Optional metrics registry: the store registers its counters under
  /// "store.*" and its scan I/O and retry counters under "io.*".
  /// Borrowed; must outlive the store. Null = private instruments only
  /// (stats() keeps working).
  obs::Registry* registry = nullptr;
  /// Optional trace log: scans, flushes and re-order steps emit spans on
  /// a "store" track; each scan sweep's read is an "io.drain" span and
  /// each retry an "io.retry" instant on an "io" track. Borrowed; must
  /// outlive the store. Recording only — the attacker-visible device
  /// trace is unchanged (leakage-neutral, pinned by the trace-equivalence
  /// suites).
  obs::TraceLog* trace = nullptr;
};

struct ObliviousStats {
  uint64_t user_reads = 0;
  uint64_t user_writes = 0;
  uint64_t dummy_reads = 0;
  uint64_t buffer_hits = 0;
  uint64_t level_probe_reads = 0;  // scan reads (real + decoy)
  uint64_t index_io = 0;           // charge_index_io extra operations
  uint64_t reorder_reads = 0;
  uint64_t reorder_writes = 0;
  uint64_t reorders = 0;
  uint64_t buffer_flushes = 0;
  /// Requests that arrived through MultiRead/MultiWrite groups of size
  /// greater than one.
  uint64_t batched_requests = 0;
  /// Planner/executor sweeps over the hierarchy. A group of k requests
  /// costs one pass; the legacy one-at-a-time path costs k.
  uint64_t scan_passes = 0;
  /// Index probes amortized away by grouping: under charge_index_io a
  /// pass reads each level's spilled index once instead of once per
  /// request, saving (group size - 1) reads per non-empty level.
  uint64_t probes_saved = 0;
  /// Incremental re-order bookkeeping (deamortize_reorders; a blocking
  /// drain is the re-order itself, not a slice of one).
  uint64_t reorder_steps = 0;      // StepReorder / tax / drain slices
  uint64_t deferred_flushes = 0;   // flush triggers coalesced into a chain
  double retrieve_ms = 0.0;  // virtual time in scans
  double sort_ms = 0.0;      // virtual time in flush/dump/re-order
  /// Wall-clock (host) time spent decrypting scan-pass probes — the
  /// agent-side crypto cost the hardware path is meant to shrink. Not on
  /// the virtual disk clock.
  double crypto_wall_ms = 0.0;
  /// Per-level re-order time (reorder_ms[i] is level i+1), summing to
  /// sort_ms. Sized to the hierarchy height.
  std::vector<double> reorder_ms;
  /// Serving stalls attributable to re-order work: a blocking
  /// flush/dump, a hard drain backstop, or one serving tax slice. Each is
  /// one sample of the store's stall histogram cell (virtual ms); these
  /// three fields are its max, sum and p99. max_stall_ms is the
  /// deamortization headline — blocking mode reports the full
  /// largest-rebuild time there.
  double max_stall_ms = 0.0;
  double stall_ms = 0.0;
  double stall_p99_ms = 0.0;

  uint64_t TotalIo() const {
    return level_probe_reads + index_io + reorder_reads + reorder_writes;
  }
  /// Mean device I/Os per served request — the "overhead factor" of
  /// Table 4 (a conventional file system serves a read with one I/O).
  double OverheadFactor() const {
    const uint64_t requests = user_reads + user_writes + dummy_reads;
    return requests == 0
               ? 0.0
               : static_cast<double>(TotalIo()) / static_cast<double>(requests);
  }
};

/// The oblivious storage of Section 5 — a hierarchical, shuffled disk
/// cache whose observable access pattern is independent of the request
/// stream.
///
/// Records are fixed-size payloads (device block size minus IV) named by
/// 64-bit ids. Reading a cached record touches exactly one slot in every
/// non-empty level (the real slot where it is found, uniformly random
/// decoys elsewhere) and re-buffers the record; once the buffer holds B
/// records they are merged into level 1, and full levels cascade downward,
/// each merge re-encrypting and re-shuffling the destination level to a
/// fresh concealed permutation via external merge sort. Any record is
/// therefore read at most once per level between re-orders, which is the
/// oblivious-RAM argument for indistinguishability (§5.1.2).
///
/// Retrieval is organised as a planner/executor pipeline over request
/// *groups*: MultiRead/MultiWrite plan one probe set covering up to B
/// requests per level scan — one slot per level per request, duplicated
/// real slots replaced by decoys — and read the whole sweep, every level
/// pass in plan order, with one vectored ReadBlocks. Nothing between the
/// plan and the device coalesces, forwards or reorders a probe: the probe
/// sequence is the attacker-visible pattern. Single-request Read/Write
/// are the k = 1 case of the same path. The §5.1.2 buffer argument
/// covers the grouping: every slot is still read at most once between
/// re-orders, and the per-request trace stays one touch per non-empty
/// level.
///
/// Re-orders: every flush/dump cascade is planned as a chain of
/// resumable ReorderJobs over an immutable snapshot (flush set +
/// live-slot sweeps), executed deepest-target-first. The blocking
/// schedule drains the chain inside the triggering op, rebuilding each
/// level in place. The deamortized one (options.deamortize_reorders)
/// runs it in bounded Step increments against each level's shadow
/// region, with an atomic base flip per install. While such a chain
/// runs, scans serve the *old* permutations; records of the snapshotted
/// flush set are served from agent memory behind a full decoy sweep
/// (the same per-level touch count the blocking schedule would show for
/// them), and levels already emptied by an earlier install are probed
/// with decoys over their projected occupancy. The union of serving
/// probes and re-order sweep I/O therefore keeps the blocking schedule's
/// per-level touch counts, and the sweep itself stays the data-
/// independent ascending-read + sequential-write pattern — the
/// obliviousness argument is interleaving-invariant. Unless
/// strict_reorder_schedule is set, a flush firing mid-chain defers
/// (coalescing up to 2B records into one rebuild) instead of stalling.
///
/// Thread safety: one owner thread at a time (storage/thread_check.h),
/// in a served system the RequestDispatcher's I/O thread. Each public
/// operation that issues I/O or changes state checks in debug builds
/// that no other thread is inside, so a MultiRead/MultiWrite group (its
/// level passes, buffer staging and deferred flush) and a StepReorder
/// slice never interleave. Aggregation into large groups is the
/// dispatcher's job. The accessors check nothing; stats() and io_stats()
/// read the instrument cells, which any thread may do.
class ObliviousStore {
 public:
  /// `device` is borrowed and must outlive the store. Validates the
  /// geometry in `options`.
  static Result<std::unique_ptr<ObliviousStore>> Create(
      storage::BlockDevice* device, const ObliviousStoreOptions& options);

  /// Number of levels k = log2(N/B).
  int height() const { return static_cast<int>(levels_.size()); }

  /// Device blocks occupied by the hierarchy (2N - 2B).
  uint64_t hierarchy_blocks() const;

  /// True if `id` is cached (buffer or any level). Memory-only check.
  bool Contains(RecordId id) const {
    return present_index_.find(id) != present_index_.end();
  }

  /// Number of distinct records cached.
  uint64_t record_count() const { return present_index_.size(); }

  /// Reads record `id` into `out_payload` (payload_size bytes). The
  /// record must be present (callers check Contains() and fetch misses
  /// from the StegFS partition — see StegPartitionReader). Equivalent to
  /// MultiRead of a single-id group.
  Status Read(RecordId id, uint8_t* out_payload);

  /// Batched oblivious read: serves `ids` in groups of up to
  /// buffer_blocks requests per level-scan pass, amortizing the pass
  /// overhead. Record `ids[i]` lands at out_payloads + i * payload_size.
  /// Every id must be present (checked before any I/O). Duplicate ids are
  /// served from one decrypted copy but still touch one decoy slot per
  /// level, so the attacker-visible trace remains exactly one touch per
  /// level per request. Buffer flushes are deferred to group end.
  Status MultiRead(std::span<const RecordId> ids, uint8_t* out_payloads);

  /// Hidden update: indistinguishable from Read on the wire (same level
  /// touches), with the new payload entering through the buffer. The
  /// caller also repeats the write on the StegFS partition for
  /// persistence (§5.1.2). Equivalent to MultiWrite of a single-id group.
  Status Write(RecordId id, const uint8_t* payload);

  /// Batched hidden update: payload `i` is read from
  /// payloads + i * payload_size. Ids absent from the store take the
  /// Insert path (buffer-only, no level touches); present ids get the
  /// read-shaped scan unless already buffered. Later duplicates win.
  Status MultiWrite(std::span<const RecordId> ids, const uint8_t* payloads);

  /// First-time insertion of a record fetched from the StegFS partition.
  /// Buffer-only; no level touches (the fetch itself was the observable
  /// I/O). Equivalent to MultiInsert of a single-id group.
  Status Insert(RecordId id, const uint8_t* payload);

  /// Batched first-time insertion (miss-fill): buffer-only like Insert,
  /// with the flush deferred to group end so a k-record fill costs at
  /// most one merge.
  Status MultiInsert(std::span<const RecordId> ids, const uint8_t* payloads);

  /// Evicts `id` from the cache: agent-side bookkeeping only, no device
  /// I/O. Any level slot holding the record turns stale — it keeps
  /// serving as decoy fodder until the next re-order drops it — and the
  /// id leaves the dummy-read sampling population immediately
  /// (swap-and-pop, O(1), sampling stays uniform).
  Status Remove(RecordId id);

  /// Dummy read: retrieves a uniformly random cached record through the
  /// full Read path. No-op when the store is empty.
  Status DummyRead();

  // ---- Deamortized re-order pump ------------------------------------------

  /// Advances pending incremental re-order work by roughly
  /// `budget_blocks` device I/Os (chunk-granular; see ReorderJob::Step);
  /// 0 means the configured reorder_step_blocks. This is the idle-gap
  /// hook for the dispatcher's I/O thread and the reader's idle dummy
  /// ops; serving also self-paces via an internal tax, so calling this
  /// is an optimization, never a correctness requirement. `more`
  /// (optional) reports whether work remains. No-op (more = false) when
  /// no chain is active — under the blocking schedule, always, unless a
  /// failed drain left one behind.
  Status StepReorder(uint64_t budget_blocks, bool* more = nullptr);

  /// True while a re-order chain has unfinished work.
  bool reorder_pending() const { return chain_.front < chain_.count; }

  /// Whether re-orders actually run deamortized: false when the option
  /// was off *or* when Create() overrode it for a shallow (< 3 level)
  /// hierarchy. Benches/tests check this instead of assuming the option
  /// stuck.
  bool deamortized() const { return options_.deamortize_reorders; }

  /// Counts level-permutation installs, one per re-order job under
  /// either schedule. Readers use it to reason about epoch consistency:
  /// everything inside one store operation observes one epoch.
  uint64_t reorder_epoch() const { return reorder_epoch_; }

  /// Snapshot of the instrument cells: torn-read-free even when another
  /// thread polls it against a concurrent scan.
  ObliviousStats stats() const;
  /// Zeroes what stats() reports. It checks no owner, so call it between
  /// serving phases: an op in flight may write over the reset.
  void ResetStats();

  /// Scan I/O counters (one drain per sweep, blocks read, blocks per
  /// sweep) plus the retries of every store I/O under io_retry. Not
  /// cleared by ResetStats().
  storage::IoSchedulerStats io_stats() const;

  /// Wires a virtual-clock sampler (e.g. SimBlockDevice::clock_ms) so the
  /// stats can split retrieve vs sort time, Figure 12(b).
  void set_clock_fn(std::function<double()> fn) {
    STEGHIDE_SERIAL_CALL_GUARD(serial_check_, "ObliviousStore");
    clock_fn_ = std::move(fn);
  }

  size_t payload_size() const { return codec_.payload_size(); }

  /// Records currently staged in the agent buffer (including a pending
  /// flush snapshot still being installed by a re-order chain).
  uint64_t buffer_fill() const { return buffer_.size() + flushing_.size(); }

  /// Largest request group served by one scan pass (= buffer_blocks);
  /// longer spans are chunked internally.
  uint64_t max_batch() const { return options_.buffer_blocks; }

  /// Number of spindles the level-scan I/O fans out across: the shard
  /// count when the backing device is a ShardedBlockDevice, else 1.
  /// Reporting only; the store drives every device the same way.
  size_t io_shard_count() const { return io_shards_; }

  /// True when every double-buffered level's two ping-pong regions land
  /// on disjoint shards for every slot (i.e. the base/alt_base phase
  /// difference is nonzero mod the shard count), so shadow rebuild I/O
  /// never competes with serving probes for the same spindle. Trivially
  /// false for a single volume.
  bool shadow_spindle_separated() const;

  /// Level occupancies, for tests and introspection.
  std::vector<uint64_t> LevelOccupancy() const;

  /// Active region base of each level (tests pin the double-buffer
  /// ping-pong and map trace blocks back to levels).
  std::vector<uint64_t> LevelBases() const;

 private:
  ObliviousStore(storage::BlockDevice* device,
                 const ObliviousStoreOptions& options);

  double Clock() const { return clock_fn_ ? clock_fn_() : 0.0; }

  /// Registry/trace wiring, called from Create() after the levels exist.
  void ConfigureObservability();

  /// Instrument cells behind the stats() and io_stats() snapshots,
  /// written by the owner thread and read by any.
  struct Cells {
    obs::CounterCell user_reads;
    obs::CounterCell user_writes;
    obs::CounterCell dummy_reads;
    obs::CounterCell buffer_hits;
    obs::CounterCell level_probe_reads;
    obs::CounterCell index_io;
    obs::CounterCell reorder_reads;
    obs::CounterCell reorder_writes;
    obs::CounterCell reorders;
    obs::CounterCell buffer_flushes;
    obs::CounterCell batched_requests;
    obs::CounterCell scan_passes;
    obs::CounterCell probes_saved;
    obs::CounterCell reorder_steps;
    obs::CounterCell deferred_flushes;
    /// Virtual time in scans and in re-orders, host time in scan-pass
    /// decryption, and re-order time per level (sized to the hierarchy
    /// at Create()).
    obs::GaugeCell retrieve_ms;
    obs::GaugeCell sort_ms;
    obs::GaugeCell crypto_wall_ms;
    std::vector<obs::GaugeCell> reorder_ms;
    /// Scan sweeps and the blocks they read (io_stats()).
    obs::CounterCell io_drains;
    obs::CounterCell io_physical_reads;
    /// Blocks per scan sweep.
    obs::HistogramCell io_depth;
    /// Individual serving stalls (virtual ms each).
    obs::HistogramCell stall;
    /// Re-order chain progress, sampled at chain transitions.
    obs::GaugeCell chain_pending_steps;
    obs::GaugeCell chain_remaining_blocks;
  };
  /// stats() rows, exported under "store.*" (crypto_wall_ms is not).
  static constexpr obs::StatRow<Cells, ObliviousStats> kStatRows[] = {
      {"user_reads", &Cells::user_reads, &ObliviousStats::user_reads},
      {"user_writes", &Cells::user_writes, &ObliviousStats::user_writes},
      {"dummy_reads", &Cells::dummy_reads, &ObliviousStats::dummy_reads},
      {"buffer_hits", &Cells::buffer_hits, &ObliviousStats::buffer_hits},
      {"level_probe_reads", &Cells::level_probe_reads,
       &ObliviousStats::level_probe_reads},
      {"index_io", &Cells::index_io, &ObliviousStats::index_io},
      {"reorder_reads", &Cells::reorder_reads,
       &ObliviousStats::reorder_reads},
      {"reorder_writes", &Cells::reorder_writes,
       &ObliviousStats::reorder_writes},
      {"reorders", &Cells::reorders, &ObliviousStats::reorders},
      {"buffer_flushes", &Cells::buffer_flushes,
       &ObliviousStats::buffer_flushes},
      {"batched_requests", &Cells::batched_requests,
       &ObliviousStats::batched_requests},
      {"scan_passes", &Cells::scan_passes, &ObliviousStats::scan_passes},
      {"probes_saved", &Cells::probes_saved, &ObliviousStats::probes_saved},
      {"reorder_steps", &Cells::reorder_steps,
       &ObliviousStats::reorder_steps},
      {"deferred_flushes", &Cells::deferred_flushes,
       &ObliviousStats::deferred_flushes},
      {"retrieve_ms", &Cells::retrieve_ms, &ObliviousStats::retrieve_ms},
      {"sort_ms", &Cells::sort_ms, &ObliviousStats::sort_ms},
      {nullptr, &Cells::crypto_wall_ms, &ObliviousStats::crypto_wall_ms},
  };
  /// io_stats() rows, exported under "io.*".
  static constexpr obs::StatRow<Cells, storage::IoSchedulerStats> kIoRows[] = {
      {"drains", &Cells::io_drains, &storage::IoSchedulerStats::drains},
      {"physical_reads", &Cells::io_physical_reads,
       &storage::IoSchedulerStats::physical_reads},
  };

  /// One planned level-scan sweep serving a request group. Each pass is
  /// the probe set of one non-empty level: an optional leading index
  /// probe (charge_index_io) plus one slot probe per request, elevator-
  /// sorted within the pass (sorting a set of uniform draws is data-
  /// independent). `owner` maps a probe back to the request whose real
  /// slot it is, or kDecoy.
  ///
  /// The plan is a reusable scratch object: `count` passes are valid,
  /// `passes` and their probe vectors keep their capacity between groups
  /// so the hot scan path stops reallocating per level (visible in the
  /// k-sweep wall time).
  struct ScanPlan {
    static constexpr size_t kDecoy = ~size_t{0};
    struct Probe {
      uint64_t block = 0;
      size_t owner = kDecoy;
    };
    struct LevelPass {
      std::vector<Probe> probes;
    };
    std::vector<LevelPass> passes;
    size_t count = 0;  // passes[0..count) are live for the current group

    LevelPass& AppendPass() {
      if (count == passes.size()) passes.emplace_back();
      LevelPass& pass = passes[count++];
      pass.probes.clear();
      return pass;
    }
    void Reset() { count = 0; }
  };

  /// Staged payloads by record id. Nodes move between buffer_,
  /// flushing_ and the spare pool, so staging a record allocates only
  /// when the pool is empty.
  using PayloadMap = std::unordered_map<RecordId, Bytes>;
  using PayloadNode = PayloadMap::node_type;

  /// One re-order of an incremental cascade plus its install actions: the
  /// source levels to clear and whether this is the final flush job
  /// (retiring the flushing_ snapshot).
  struct ChainStep {
    ReorderJob::Inputs inputs;
    size_t target_level = 0;
    uint64_t dst_base = 0;
    /// Levels [clear_begin, clear_end) are emptied at the install.
    size_t clear_begin = 0;
    size_t clear_end = 0;
    bool is_flush = false;
  };
  /// A flush/dump cascade: steps execute strictly in order (deepest
  /// target first, the flush job last), each installing its level before
  /// the next starts. Planned — snapshots and projections — at the flush
  /// trigger; sort tags are drawn as reorder_ feeds each step to the
  /// sorter. The steps and their inputs keep their storage across chains:
  /// steps[0, count) are the current plan, steps[front, count) are still
  /// pending, and reorder_ runs steps[front].
  struct ReorderChain {
    std::vector<ChainStep> steps;
    size_t count = 0;
    size_t front = 0;
    // Last-seen job I/O counters, for incremental stats deltas.
    uint64_t front_reads_seen = 0;
    uint64_t front_writes_seen = 0;
  };
  /// Per-level projection of the chain's end state, used to keep the
  /// serving probe shape equal to the blocking schedule's while a level
  /// sits emptied (installed downward, not yet refilled): such levels
  /// are probed with decoys over [0, projected_occ) of the region that
  /// will become active.
  struct LevelProjection {
    bool involved = false;
    uint64_t projected_occ = 0;
    uint64_t projected_base = 0;
  };

  /// Plans the touch pattern for a request group into the reusable
  /// `plan_`. `scan[i]` is true for requests that probe the levels;
  /// `decoy_only[i]` marks requests that draw decoys in every level —
  /// duplicates of an earlier group member, and records of a pending
  /// flush snapshot (served from memory but keeping the blocking trace
  /// shape). DRBG draws happen in level-major, request-minor order.
  Status PlanScan(std::span<const RecordId> ids,
                  std::span<const uint8_t> scan,
                  std::span<const uint8_t> decoy_only);

  /// Executes `plan_`: the whole sweep as one vectored read in plan
  /// order, then per-request decrypt+extract into out_payloads
  /// (group-indexed; nullptr skips extraction).
  Status ExecuteScan(uint8_t* out_payloads);

  /// Serves one group of at most buffer_blocks read requests, counted as
  /// user reads unless `dummy` (DummyRead counts its own once it ran).
  Status ReadGroup(std::span<const RecordId> ids, uint8_t* out_payloads,
                   bool dummy);

  /// Serves one group of at most buffer_blocks write/insert requests.
  Status WriteGroup(std::span<const RecordId> ids, const uint8_t* payloads);

  /// Registers `id` as present (no-op when already cached). Fails with
  /// NoSpace at capacity.
  Status RegisterPresent(RecordId id);

  /// Stages a payload in the buffer without flushing, in a spare node
  /// when there is one.
  void BufferStage(RecordId id, const uint8_t* payload);

  /// Flushes the buffer once it holds at least B records. Group
  /// operations call this once per group, so the buffer may transiently
  /// hold up to 2B - 1 records — still within level 1's capacity.
  Status MaybeFlush();

  /// Plans the flush cascade as a chain and, under the blocking
  /// schedule, drains it on the spot. The deamortized schedule may
  /// instead defer the trigger while an earlier chain still runs.
  Status FlushBuffer();

  /// Blocking schedule: finishes a chain whose drain failed inside an
  /// earlier op. Its jobs rebuild levels in place, so no scan may probe
  /// the hierarchy before the chain is installed. Called on entry to
  /// every serving op; a no-op otherwise.
  Status FinishBlockingChain() {
    return options_.deamortize_reorders ? Status::OK() : DrainChain();
  }

  /// charge_index_io: sequential index rewrite after re-ordering `level`.
  /// (The per-pass index read is planned inline by PlanScan, so it joins
  /// the level probes in one batched request.)
  Status ChargeIndexRebuild(const Level& level);

  // ---- Re-order chain machinery -------------------------------------------

  /// Arms reorder_ for the chain's front step.
  void BeginFront() {
    const ChainStep& step = chain_.steps[chain_.front];
    reorder_->Begin(step.target_level, step.dst_base, &step.inputs);
  }

  /// Device-I/O estimate for the rest of the chain (pacing and gauges).
  uint64_t ChainRemainingBlocks() const;

  /// Retires the installed flush snapshot: its nodes, and those Remove()
  /// took out of it while the flush job could still read them, become
  /// spare nodes for later stagings.
  void RetireFlushSet();
  /// Pools `node` for BufferStage, or frees it when the pool is full.
  void KeepSpare(PayloadNode node);

  /// Records the buffer may coalesce before the hard flush backstop.
  /// Auto default: N/4 — flush sets then fold every level up to a
  /// quarter of the hierarchy, so coalesced records skip those levels'
  /// rewrites, and the pacing window for a bottom-level rebuild spans a
  /// quarter of the record population. Capped at 2048 records (8 MB of
  /// agent staging RAM at 4 KB blocks — the same real-RAM-does-not-
  /// shrink argument as the sort-run floor). When N/4 <= B the limit
  /// degenerates to B: shallow hierarchies keep the blocking flush
  /// schedule (coalescing there just rebuilds the bottom level per
  /// flush) and take only the pacing/latency win.
  uint64_t DeferLimitRecords() const {
    constexpr uint64_t kDeferCapRecords = 2048;
    return std::max<uint64_t>(
        options_.buffer_blocks,
        std::min<uint64_t>(kDeferCapRecords, options_.capacity_blocks / 4));
  }

  /// Plans the flush cascade at trigger time (snapshots + projections),
  /// moving buffer_'s records into flushing_. The plan is the paper's
  /// dump(i) recursion, deepest re-order first, over live counts frozen
  /// at the trigger.
  Status StartFlushChain();

  /// Advances the chain by roughly `budget_blocks` I/Os, installing
  /// finished jobs. `stall` marks the time serving-attributable (tax or
  /// drain backstop) for the stall counters.
  Status StepChain(uint64_t budget_blocks, bool stall);

  /// Runs the chain to completion (blocking schedule, hard backstop,
  /// strict schedule).
  Status DrainChain();

  /// Serving tax: self-paced chain advance spreading the remaining work
  /// over the stagings left before the hard backstop, proportional to
  /// the `staged` records the finishing op contributed.
  Status PaceChain(uint64_t staged);

  /// Installs the finished front job: flips the level to the region the
  /// job built (in place under the blocking schedule), applies
  /// tombstones, clears the dumped source, arms the next step (or retires
  /// chain state at the end) and charges the index rebuild.
  Status InstallFrontJob();

  /// Refreshes the chain-progress gauges (pending steps, remaining
  /// device I/Os) at chain transitions.
  void UpdateChainGauges();

  /// With io_retry set, the retry decorator over the caller's device;
  /// null otherwise.
  std::unique_ptr<storage::RetryingBlockDevice> retry_;
  /// The one device every store I/O goes through — scan sweeps, re-order
  /// jobs, the merge sorter and index charges: retry_ when set, else the
  /// caller's device. A transient kIoError in a serving-tax re-order step
  /// is then re-driven like one in a scan.
  storage::BlockDevice* device_;
  ObliviousStoreOptions options_;
  stegfs::BlockCodec codec_;
  /// The store's one generator: the store key, decoy slots, index
  /// nonces, and — through the re-order jobs and the merge sorter —
  /// shuffle tags and run IVs. Every draw after Create() happens inside
  /// one store operation, so the stream follows op order whichever
  /// thread owns the store.
  crypto::HashDrbg drbg_;
  crypto::CbcCipher cipher_;
  size_t io_shards_ = 1;
  std::vector<Level> levels_;  // levels_[0] is level 1 (size 2B)

  PayloadMap buffer_;
  /// id -> position in present_list_; doubles as the presence set.
  std::unordered_map<RecordId, size_t> present_index_;
  std::vector<RecordId> present_list_;  // for uniform dummy-read sampling

  std::function<double()> clock_fn_;
  Cells cells_;
  obs::TraceLog* trace_ = nullptr;
  uint32_t trace_track_ = 0;
  uint32_t io_track_ = 0;

  /// Checks the one-owner rule at each public operation.
  storage::SerialCallChecker serial_check_;

  // Per-group scratch reused across scan passes: the plan, the sweep's
  // block ids and read buffer, the decrypt staging block, and the group
  // classification vectors. Kept as members to cut allocation churn on
  // the hot path.
  ScanPlan plan_;
  std::vector<uint64_t> sweep_ids_;
  Bytes sweep_buf_;
  Bytes payload_scratch_;
  /// DummyRead's discarded payload.
  Bytes dummy_payload_;
  /// Pointer tables for the sweep-wide scattered batch open.
  std::vector<const uint8_t*> open_blocks_scratch_;
  std::vector<uint8_t*> open_payloads_scratch_;
  std::vector<uint8_t> scan_scratch_;
  std::vector<uint8_t> dup_scratch_;
  std::vector<uint8_t> ghost_scratch_;
  /// PlanScan's per-request "real slot found" flags.
  std::vector<uint8_t> found_scratch_;
  /// WriteGroup's first-time ids.
  std::vector<RecordId> fresh_scratch_;
  /// Per-group id set of ReadGroup (id -> first position), WriteGroup and
  /// MultiInsert, rebuilt per group inside kept storage.
  HashIndex group_ids_;

  /// Persistent re-order scratch: the external sorter (payload arena and
  /// seal staging reused across re-orders), the one job engine that runs
  /// every chain step, and the planner's dedup set (a flat table whose
  /// storage is kept across chain starts).
  std::unique_ptr<ExternalMergeSorter> sorter_;
  std::unique_ptr<ReorderJob> reorder_;
  HashIndex reorder_added_;

  // ---- Re-order chain state ----------------------------------------------

  ReorderChain chain_;
  /// Flush snapshot being installed by the chain's flush job, which reads
  /// the payloads in place. Records here are served from memory behind a
  /// full decoy sweep ("ghosts"), so the trace keeps the blocking
  /// schedule's touch counts.
  PayloadMap flushing_;
  /// Nodes Remove() took out of flushing_ while the flush job may still
  /// read them; spare once the flush installs.
  std::vector<PayloadNode> removed_flushing_;
  /// Nodes of retired flush sets and removed buffer records, reused by
  /// BufferStage; at most 2B (KeepSpare).
  std::vector<PayloadNode> spare_nodes_;
  /// Ids Remove()d while the chain runs; erased from freshly installed
  /// indexes so a snapshot can never resurrect an evicted record.
  std::unordered_set<RecordId> chain_tombstones_;
  std::vector<LevelProjection> projection_;
  uint64_t reorder_epoch_ = 0;

  /// Declared last so it is destroyed first: unregistering latches each
  /// instrument's final value, so cells_ must still be alive then.
  obs::Registration registration_;
};

}  // namespace steghide::oblivious

#endif  // STEGHIDE_OBLIVIOUS_OBLIVIOUS_STORE_H_
