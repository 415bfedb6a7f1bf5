#include "analysis/snapshot_diff.h"

namespace steghide::analysis {

Result<std::vector<uint64_t>> DiffSnapshots(const storage::Snapshot& before,
                                            const storage::Snapshot& after) {
  if (before.num_blocks() != after.num_blocks()) {
    return Status::InvalidArgument("snapshots cover different volumes");
  }
  std::vector<uint64_t> changed;
  for (uint64_t b = 0; b < before.num_blocks(); ++b) {
    if (before.fingerprint(b) != after.fingerprint(b)) changed.push_back(b);
  }
  return changed;
}

Status UpdateAnalysisObserver::ObserveDiff(const storage::Snapshot& before,
                                           const storage::Snapshot& after) {
  if (before.num_blocks() != counts_.size() ||
      after.num_blocks() != counts_.size()) {
    return Status::InvalidArgument("snapshot size mismatch");
  }
  STEGHIDE_ASSIGN_OR_RETURN(const std::vector<uint64_t> changed,
                            DiffSnapshots(before, after));
  for (uint64_t b : changed) {
    ++counts_[b];
    ++total_;
  }
  return Status::OK();
}

std::vector<uint64_t> BinCounts(const std::vector<uint64_t>& counts,
                                size_t num_bins) {
  std::vector<uint64_t> bins(num_bins, 0);
  if (counts.empty() || num_bins == 0) return bins;
  for (size_t i = 0; i < counts.size(); ++i) {
    const size_t bin = i * num_bins / counts.size();
    bins[bin] += counts[i];
  }
  return bins;
}

}  // namespace steghide::analysis
