#ifndef STEGHIDE_STORAGE_DISK_MODEL_H_
#define STEGHIDE_STORAGE_DISK_MODEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace steghide::storage {

/// Calibration parameters for the rotational-disk timing model. Defaults
/// approximate the paper's testbed (Table 1: Ultra ATA/100 disk, 20 GB,
/// circa 2003): ~8.9 ms average seek, 7200 RPM, 40 MB/s media rate.
struct DiskModelParams {
  /// Fixed per-request command/controller overhead.
  double controller_overhead_ms = 0.3;
  /// Minimum (track-to-track) seek.
  double track_to_track_ms = 1.0;
  /// Average seek, i.e. the cost of a seek across one third of the disk.
  double avg_seek_ms = 8.9;
  /// Full-stroke seek cap.
  double full_stroke_ms = 17.0;
  /// Spindle speed; average rotational latency is half a revolution.
  double rpm = 7200.0;
  /// Sustained media transfer rate.
  double transfer_mb_per_s = 40.0;
};

/// Virtual-time model of a single-spindle disk.
///
/// All performance results in this reproduction are measured on the
/// model's virtual clock rather than host wall-time (README, "Virtual
/// disk clock and N/B scaling").
/// The model captures the two effects the paper's evaluation hinges on:
///
///  1. a random block access pays seek + rotational latency + transfer,
///     while a sequential access pays transfer only — a gap of roughly two
///     orders of magnitude at 4 KB blocks; and
///  2. interleaved request streams (concurrency) destroy sequential runs,
///     which is why CleanDisk/FragDisk lose their advantage in
///     Figures 10(b) and 11(c).
///
/// Seek time is modelled as t2t + k*sqrt(distance), calibrated so that a
/// seek across one third of the disk costs avg_seek_ms, capped at
/// full_stroke_ms. Rotational latency uses the expected half revolution.
class DiskModel {
 public:
  DiskModel(const DiskModelParams& params, uint64_t num_blocks,
            size_t block_size);

  /// Accounts one block access at `block_id`, advances the head and the
  /// virtual clock, and returns the service time in ms.
  double Access(uint64_t block_id);

  /// Service time the *next* access to `block_id` would take, without
  /// performing it.
  double PeekAccessCost(uint64_t block_id) const;

  /// Advances the virtual clock without moving the head (e.g. agent-side
  /// computation that the experiment wants to account for).
  void AdvanceClock(double ms) {
    clock_ms_.fetch_add(ms, std::memory_order_relaxed);
  }

  /// The virtual clock is atomic so observer threads (latency stamps in
  /// the request dispatcher, progress sampling) can read it while the
  /// single issuing thread advances it. All other model state keeps the
  /// single-issuer contract of block_device.h.
  double clock_ms() const { return clock_ms_.load(std::memory_order_relaxed); }
  uint64_t sequential_accesses() const { return sequential_accesses_; }
  uint64_t random_accesses() const { return random_accesses_; }

  /// Forgets the head position, so the next access is charged as random.
  void InvalidateHeadPosition() { has_position_ = false; }

  const DiskModelParams& params() const { return params_; }

 private:
  double SeekTime(uint64_t distance) const;

  DiskModelParams params_;
  uint64_t num_blocks_;
  double transfer_ms_per_block_;
  double avg_rotational_ms_;
  double seek_coeff_;  // k in t2t + k*sqrt(d)

  std::atomic<double> clock_ms_{0.0};
  bool has_position_ = false;
  uint64_t head_block_ = 0;  // next block under the head
  uint64_t sequential_accesses_ = 0;
  uint64_t random_accesses_ = 0;
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_DISK_MODEL_H_
