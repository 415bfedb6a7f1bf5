#ifndef STEGHIDE_STORAGE_SIM_DEVICE_H_
#define STEGHIDE_STORAGE_SIM_DEVICE_H_

#include <memory>

#include "obs/metrics.h"
#include "storage/block_device.h"
#include "storage/disk_model.h"

namespace steghide::storage {

/// Aggregate I/O counters of a SimBlockDevice.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t sequential = 0;
  uint64_t random = 0;
  double busy_ms = 0.0;

  uint64_t total_ops() const { return reads + writes; }
};

/// Decorates a backing device with the DiskModel: every read/write is
/// forwarded to the backing store and charged on the virtual clock.
/// Experiments create one SimBlockDevice per volume and read elapsed
/// virtual time via clock_ms().
class SimBlockDevice : public BlockDevice {
 public:
  /// Does not take ownership of `backing`, which must outlive this object.
  SimBlockDevice(BlockDevice* backing, const DiskModelParams& params);

  using BlockDevice::ReadBlocks;

  /// Forwards one block at a time and charges it once it succeeds, so a
  /// failed block and the blocks after it cost nothing.
  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override;
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override;
  uint64_t num_blocks() const override { return backing_->num_blocks(); }
  size_t block_size() const override { return backing_->block_size(); }
  Status Flush() override { return backing_->Flush(); }

  double clock_ms() const { return model_.clock_ms(); }

  /// Torn-read-free snapshot: counters live in sharded atomic cells, so a
  /// reader racing the issuing thread sees consistent (merely stale)
  /// values, never garbage.
  IoStats stats() const {
    IoStats s;
    s.reads = cells_.reads.value();
    s.writes = cells_.writes.value();
    s.sequential = cells_.sequential.value();
    s.random = cells_.random.value();
    s.busy_ms = cells_.busy_ms.value();
    return s;
  }
  DiskModel& model() { return model_; }

  /// Resets counters but not the clock (experiments often measure phases).
  void ResetStats() {
    cells_.reads.Reset();
    cells_.writes.Reset();
    cells_.sequential.Reset();
    cells_.random.Reset();
    cells_.busy_ms.Reset();
  }

  /// Registers this device's instruments under `prefix` (e.g. "io.shard0").
  void RegisterMetrics(obs::Registry* registry, const std::string& prefix);

  BlockDevice* backing() { return backing_; }

 private:
  struct IoCells {
    obs::CounterCell reads;
    obs::CounterCell writes;
    obs::CounterCell sequential;
    obs::CounterCell random;
    obs::GaugeCell busy_ms;
  };

  void Charge(uint64_t block_id);

  BlockDevice* backing_;
  DiskModel model_;
  IoCells cells_;
  obs::Registration registration_;
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_SIM_DEVICE_H_
