#ifndef PERFBENCH_TIMING_DEVICE_H_
#define PERFBENCH_TIMING_DEVICE_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "storage/block_device.h"

namespace perfbench {

/// Wall-clock origin shared by the trace clock and the device timers, so
/// span intervals and device bursts land on one time axis.
inline std::chrono::steady_clock::time_point Epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// Milliseconds since Epoch().
inline double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Epoch())
      .count();
}

/// A run of back-to-back device calls on one thread: the wall interval
/// from the first call's start to the last call's end, and the time
/// actually spent inside the calls.
struct Burst {
  double start_ms = 0.0;
  double end_ms = 0.0;
  double busy_ms = 0.0;
};

/// Benchmark-owned BlockDevice decorator that counts calls and blocks and
/// times every call in wall nanoseconds. It forwards every operation
/// unchanged, so the device trace below it is identical to a bare stack.
///
/// With `record_bursts`, calls separated by less than kBurstGapMs are
/// folded into one Burst; the self-time script attributes each burst to
/// the innermost span that contains its start. A gap that short rarely
/// holds a span boundary (ending one span and starting another takes two
/// trace-log appends), while recording every call would cost millions of
/// entries per run.
///
/// Single issuer, like the device it wraps.
class TimingBlockDevice : public steghide::storage::BlockDevice {
 public:
  static constexpr double kBurstGapMs = 0.0005;

  TimingBlockDevice(steghide::storage::BlockDevice* inner, bool record_bursts)
      : inner_(inner), record_bursts_(record_bursts) {}

  using BlockDevice::ReadBlock;
  using BlockDevice::ReadBlocks;
  using BlockDevice::WriteBlock;

  steghide::Status ReadBlock(uint64_t block_id, uint8_t* out) override {
    const double start = WallMs();
    steghide::Status status = inner_->ReadBlock(block_id, out);
    Record(start, 1);
    return status;
  }
  steghide::Status WriteBlock(uint64_t block_id, const uint8_t* data) override {
    const double start = WallMs();
    steghide::Status status = inner_->WriteBlock(block_id, data);
    Record(start, 1);
    return status;
  }
  steghide::Status ReadBlocks(std::span<const uint64_t> ids,
                              uint8_t* out) override {
    const double start = WallMs();
    steghide::Status status = inner_->ReadBlocks(ids, out);
    Record(start, ids.size());
    return status;
  }
  steghide::Status WriteBlocks(std::span<const uint64_t> ids,
                               const uint8_t* data) override {
    const double start = WallMs();
    steghide::Status status = inner_->WriteBlocks(ids, data);
    Record(start, ids.size());
    return status;
  }
  steghide::Status Flush() override {
    const double start = WallMs();
    steghide::Status status = inner_->Flush();
    Record(start, 0);
    return status;
  }
  uint64_t num_blocks() const override { return inner_->num_blocks(); }
  size_t block_size() const override { return inner_->block_size(); }

  uint64_t calls() const { return calls_; }
  uint64_t blocks() const { return blocks_; }
  double wall_ms() const { return wall_ms_; }
  const std::vector<Burst>& bursts() const { return bursts_; }

  /// Zeroes the counters and drops recorded bursts (call between phases,
  /// while no I/O is in flight).
  void Reset() {
    calls_ = 0;
    blocks_ = 0;
    wall_ms_ = 0.0;
    bursts_.clear();
  }

 private:
  void Record(double start, size_t blocks) {
    const double end = WallMs();
    ++calls_;
    blocks_ += blocks;
    wall_ms_ += end - start;
    if (!record_bursts_) return;
    if (!bursts_.empty() && start - bursts_.back().end_ms < kBurstGapMs) {
      bursts_.back().end_ms = end;
      bursts_.back().busy_ms += end - start;
    } else {
      bursts_.push_back(Burst{start, end, end - start});
    }
  }

  steghide::storage::BlockDevice* inner_;
  bool record_bursts_;
  uint64_t calls_ = 0;
  uint64_t blocks_ = 0;
  double wall_ms_ = 0.0;
  std::vector<Burst> bursts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_DEVICE_H_
