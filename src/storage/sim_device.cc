#include "storage/sim_device.h"

namespace steghide::storage {

SimBlockDevice::SimBlockDevice(BlockDevice* backing,
                               const DiskModelParams& params)
    : backing_(backing),
      model_(params, backing->num_blocks(), backing->block_size()) {}

void SimBlockDevice::Charge(uint64_t block_id) {
  const uint64_t seq_before = model_.sequential_accesses();
  cells_.busy_ms.Add(model_.Access(block_id));
  if (model_.sequential_accesses() > seq_before) {
    cells_.sequential.Increment();
  } else {
    cells_.random.Increment();
  }
}

Status SimBlockDevice::ReadBlocks(std::span<const uint64_t> ids,
                                  uint8_t* out) {
  const size_t bs = block_size();
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(backing_->ReadBlock(ids[i], out + i * bs));
    Charge(ids[i]);
    cells_.reads.Increment();
  }
  return Status::OK();
}

Status SimBlockDevice::WriteBlocks(std::span<const uint64_t> ids,
                                   const uint8_t* data) {
  const size_t bs = block_size();
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(backing_->WriteBlock(ids[i], data + i * bs));
    Charge(ids[i]);
    cells_.writes.Increment();
  }
  return Status::OK();
}

void SimBlockDevice::RegisterMetrics(obs::Registry* registry,
                                     const std::string& prefix) {
  registration_ = obs::Registration(registry);
  obs::RegisterRows(kStatRows, cells_, prefix, &registration_);
  registration_.Callback(prefix + ".clock_ms",
                         [this] { return model_.clock_ms(); });
}

}  // namespace steghide::storage
