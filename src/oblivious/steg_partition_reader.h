#ifndef STEGHIDE_OBLIVIOUS_STEG_PARTITION_READER_H_
#define STEGHIDE_OBLIVIOUS_STEG_PARTITION_READER_H_

#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "oblivious/oblivious_store.h"
#include "stegfs/stegfs_core.h"

namespace steghide::oblivious {

/// Read-path front end combining the StegFS partition with the oblivious
/// storage, per §5.1.1 and Figure 8(a).
///
/// The first read of any file block fetches it from the StegFS partition
/// and copies it into the oblivious store; all later reads are served
/// obliviously from the store. To keep the *fetch* pattern random too, a
/// fetch is preceded by a geometrically distributed number of decoy reads
/// of already-fetched blocks: with S blocks fetched so far out of an
/// M-block partition, each loop iteration re-reads a random fetched block
/// with probability |S|/M (Figure 8(a)'s "if X < sizeof(S)" branch).
/// Combined with the one-fetch-per-block rule, every observable read of
/// the StegFS partition is uniformly distributed.
///
/// Thread safety: the reader keeps per-pass scratch state and the fetched
/// set without internal locking; it must be driven by one thread at a
/// time. ObliviousAgent serializes all access under its I/O lock, which
/// is also what the RequestDispatcher's single issuing thread goes
/// through.
class StegPartitionReader {
 public:
  /// Snapshot view assembled from the issuing thread's cells: the reader
  /// itself is single-threaded by contract, but stats() may be polled
  /// from bench / monitoring threads while the issuing thread serves.
  struct Stats {
    uint64_t cache_hits = 0;   // served by the oblivious store
    uint64_t real_fetches = 0;  // first-time fetches from the partition
    uint64_t decoy_reads = 0;   // Figure 8(a) re-reads of fetched blocks
    uint64_t dummy_reads = 0;   // idle-time dummy reads
    /// Level-permutation installs observed *mid-batch* (a deamortized
    /// re-order chain flipping a level between this batch's store
    /// groups). Evidence for tests that serving kept flowing across
    /// installs; see the epoch-consistency note in ReadRefBatch.
    uint64_t reorder_epoch_flips = 0;
  };

  /// Neither pointer is owned. `core` is the StegFS partition (its whole
  /// device is the partition); `store` is the oblivious cache.
  StegPartitionReader(stegfs::StegFsCore* core, ObliviousStore* store);

  /// Record id for a file block; file.agent_tag and logical must each fit
  /// in 32 bits.
  static RecordId MakeRecordId(const stegfs::HiddenFile& file,
                               uint64_t logical) {
    return (file.agent_tag << 32) | logical;
  }

  /// Reads logical block `logical` of `file` into `out_payload`.
  /// Equivalent to a single-block ReadBlockBatch.
  Status ReadBlock(const stegfs::HiddenFile& file, uint64_t logical,
                   uint8_t* out_payload);

  /// Batched read: logical block `logicals[i]` lands at
  /// out_payloads + i * payload_size. Blocks absent from the oblivious
  /// store are miss-filled in one pass — the Figure 8(a) decoy draws run
  /// per miss in order (the fetched set grows between misses exactly as
  /// sequential fetches would, preserving the uniformity argument), the
  /// fetches go down as one vectored partition read, and the fills enter
  /// the store with a single deferred flush. Cached blocks are then
  /// served through one MultiRead group per buffer-size chunk.
  Status ReadBlockBatch(const stegfs::HiddenFile& file,
                        std::span<const uint64_t> logicals,
                        uint8_t* out_payloads);

  /// One block of a cross-file batched read.
  struct BlockRef {
    const stegfs::HiddenFile* file = nullptr;
    uint64_t logical = 0;
  };

  /// Cross-file batched read — the aggregation seam the request
  /// dispatcher feeds: `refs[i]` (any mix of files) lands at
  /// out_payloads + i * payload_size. Misses across *all* files share one
  /// Figure-8(a) decoy pass (the draw sequence depends only on the size
  /// of the fetched set, so grouping by file for the vectored fetches
  /// leaves the observable distribution untouched), enter the store with
  /// one MultiInsert, and every cached block across files is served by
  /// one MultiRead group per buffer-size chunk — which is where k
  /// concurrent users cost one level-scan pass instead of k.
  Status ReadRefBatch(std::span<const BlockRef> refs, uint8_t* out_payloads);

  /// Idle-time dummy read on the StegFS partition: one uniformly random
  /// block (Figure 8(a), else-branch).
  Status DummyStegRead();

  /// Idle-time dummy op exercising both partitions the way a cached read
  /// plus a fetch would: a dummy oblivious read and a dummy partition
  /// read.
  Status IdleDummyOp();

  Stats stats() const { return obs::ReadRows(kStatRows, cells_); }
  uint64_t fetched_count() const { return fetched_.size(); }

  /// Registers the reader's counters under `prefix` (e.g. "reader").
  void RegisterMetrics(obs::Registry* registry, const std::string& prefix);

 private:
  struct Cells {
    obs::CounterCell cache_hits;
    obs::CounterCell real_fetches;
    obs::CounterCell decoy_reads;
    obs::CounterCell dummy_reads;
    obs::CounterCell reorder_epoch_flips;
  };
  static constexpr obs::StatRow<Cells, Stats> kStatRows[] = {
      {"cache_hits", &Cells::cache_hits, &Stats::cache_hits},
      {"real_fetches", &Cells::real_fetches, &Stats::real_fetches},
      {"decoy_reads", &Cells::decoy_reads, &Stats::decoy_reads},
      {"dummy_reads", &Cells::dummy_reads, &Stats::dummy_reads},
      {"reorder_epoch_flips", &Cells::reorder_epoch_flips,
       &Stats::reorder_epoch_flips},
  };

  stegfs::StegFsCore* core_;
  ObliviousStore* store_;
  std::vector<uint64_t> fetched_;  // physical blocks already copied (the set S)
  Cells cells_;
  obs::Registration registration_;

  // Per-pass scratch reused across batches (single-threaded by contract)
  // so the hot miss-fill/cached path stops reallocating per call.
  std::vector<uint64_t> decoys_;
  std::vector<uint64_t> new_fetches_;
  std::vector<RecordId> miss_ids_;
  std::vector<RecordId> cached_ids_;
  std::vector<size_t> cached_at_;
  std::vector<uint64_t> file_logicals_;
  std::vector<size_t> file_positions_;
  std::vector<uint8_t> miss_consumed_;
  Bytes fetch_scratch_;
  Bytes file_scratch_;
  Bytes cached_scratch_;
  Bytes decoy_scratch_;
};

}  // namespace steghide::oblivious

#endif  // STEGHIDE_OBLIVIOUS_STEG_PARTITION_READER_H_
