#ifndef STEGHIDE_ANALYSIS_SNAPSHOT_DIFF_H_
#define STEGHIDE_ANALYSIS_SNAPSHOT_DIFF_H_

#include <cstdint>
#include <vector>

#include "storage/snapshot.h"
#include "util/result.h"

namespace steghide::analysis {

/// Block ids whose content changed between two snapshots — what the
/// update-analysis attacker of §3.1 extracts from consecutive scans of the
/// raw storage.
Result<std::vector<uint64_t>> DiffSnapshots(const storage::Snapshot& before,
                                            const storage::Snapshot& after);

/// Accumulates the attacker's view over a campaign of snapshots: how many
/// times each block was observed to change. Uniform counts are consistent
/// with dummy-only traffic; any block (or region) updated significantly
/// more often than the rest betrays live data.
class UpdateAnalysisObserver {
 public:
  explicit UpdateAnalysisObserver(uint64_t num_blocks)
      : counts_(num_blocks, 0) {}

  /// Records the diff between two consecutive snapshots.
  Status ObserveDiff(const storage::Snapshot& before,
                     const storage::Snapshot& after);

  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t total_updates() const { return total_; }
  uint64_t num_blocks() const { return counts_.size(); }

 private:
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Bins arbitrary per-position counts into `num_bins` contiguous ranges,
/// the granularity at which the chi-square test is run (per-block
/// expected counts are usually below the test's validity threshold).
std::vector<uint64_t> BinCounts(const std::vector<uint64_t>& counts,
                                size_t num_bins);

}  // namespace steghide::analysis

#endif  // STEGHIDE_ANALYSIS_SNAPSHOT_DIFF_H_
