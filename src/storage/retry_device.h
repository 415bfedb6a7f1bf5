#ifndef STEGHIDE_STORAGE_RETRY_DEVICE_H_
#define STEGHIDE_STORAGE_RETRY_DEVICE_H_

#include <cstdint>
#include <functional>

#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "storage/block_device.h"

namespace steghide::storage {

/// Bounded exponential-backoff retry budget of the RetryingBlockDevice
/// decorator (and, per replica, of the remote block client).
struct RetryPolicy {
  /// Total attempts including the first; <= 1 disables retrying.
  int max_attempts = 3;
  /// Virtual milliseconds charged (through the latency hook) before the
  /// first retry; doubles by `backoff_multiplier` per further attempt.
  double backoff_ms = 0.5;
  double backoff_multiplier = 2.0;

  double BackoffFor(int retry_index) const {
    double ms = backoff_ms;
    for (int i = 0; i < retry_index; ++i) ms *= backoff_multiplier;
    return ms;
  }
};

/// Counter snapshot of a retry layer's activity.
struct RetryStats {
  uint64_t retries = 0;
  /// Calls that failed at least once but succeeded within the budget.
  uint64_t recovered = 0;
  /// Calls that burned the whole budget and surfaced the error.
  uint64_t exhausted = 0;
};

/// Decorator that retries kIoError failures of the backing device.
/// Retrying is safe here because the BlockDevice contract is idempotent
/// per call: re-reading a block is free of side effects, and re-writing
/// the same image over a torn write simply completes it. Non-I/O errors
/// (kInvalidArgument etc.) are never retried. Vectored calls are retried
/// whole, so a torn batch is re-driven from its first block — decorators
/// below see the same op multiset either way.
class RetryingBlockDevice : public BlockDevice {
 public:
  /// Does not take ownership of `backing`.
  explicit RetryingBlockDevice(BlockDevice* backing, RetryPolicy policy = {})
      : backing_(backing), policy_(policy) {}

  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override;
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override;
  uint64_t num_blocks() const override { return backing_->num_blocks(); }
  size_t block_size() const override { return backing_->block_size(); }
  Status Flush() override;

  /// Sink for backoff charges (typically DiskModel::AdvanceClock).
  void set_latency_fn(std::function<void(double)> fn) {
    latency_fn_ = std::move(fn);
  }

  /// Attaches a trace log: every retry emits an "io.retry" instant on
  /// `track` (args: attempt, blocks). Null detaches.
  void set_trace(obs::TraceLog* log, uint32_t track) {
    trace_ = log;
    trace_track_ = track;
  }

  RetryStats stats() const { return obs::ReadRows(kStatRows, cells_); }
  void RegisterMetrics(obs::Registry* registry, const std::string& prefix);

  BlockDevice* backing() { return backing_; }

 private:
  struct Cells {
    obs::CounterCell retries;
    obs::CounterCell recovered;
    obs::CounterCell exhausted;
  };
  static constexpr obs::StatRow<Cells, RetryStats> kStatRows[] = {
      {"retries", &Cells::retries, &RetryStats::retries},
      {"recovered", &Cells::recovered, &RetryStats::recovered},
      {"exhausted", &Cells::exhausted, &RetryStats::exhausted},
  };

  /// Runs `call`, a device call covering `blocks` blocks, under the
  /// budget.
  Status Retry(size_t blocks, const std::function<Status()>& call);

  BlockDevice* backing_;
  RetryPolicy policy_;
  std::function<void(double)> latency_fn_;
  obs::TraceLog* trace_ = nullptr;
  uint32_t trace_track_ = 0;
  Cells cells_;
  obs::Registration registration_;
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_RETRY_DEVICE_H_
