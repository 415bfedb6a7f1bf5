#ifndef STEGHIDE_STORAGE_TRACE_DEVICE_H_
#define STEGHIDE_STORAGE_TRACE_DEVICE_H_

#include <vector>

#include "storage/block_device.h"

namespace steghide::storage {

/// One observed I/O operation. This is exactly the information the
/// paper's second attacker class sees: the request stream between the
/// agent and the raw storage (op direction and block address), but not the
/// plaintext or keys.
struct TraceEvent {
  enum class Kind : uint8_t { kRead, kWrite };
  Kind kind;
  uint64_t block_id;

  bool operator==(const TraceEvent&) const = default;
};

using IoTrace = std::vector<TraceEvent>;

/// Decorates a device, recording every operation in order. Used by the
/// analysis module to run traffic-analysis distinguishers over the
/// observed request stream.
class TraceBlockDevice : public BlockDevice {
 public:
  /// Does not take ownership of `backing`.
  explicit TraceBlockDevice(BlockDevice* backing) : backing_(backing) {}

  using BlockDevice::ReadBlocks;

  /// Forwards one block at a time and records it once it succeeds.
  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override {
    const size_t bs = block_size();
    for (size_t i = 0; i < ids.size(); ++i) {
      STEGHIDE_RETURN_IF_ERROR(backing_->ReadBlock(ids[i], out + i * bs));
      if (enabled_) trace_.push_back({TraceEvent::Kind::kRead, ids[i]});
    }
    return Status::OK();
  }

  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override {
    const size_t bs = block_size();
    for (size_t i = 0; i < ids.size(); ++i) {
      STEGHIDE_RETURN_IF_ERROR(backing_->WriteBlock(ids[i], data + i * bs));
      if (enabled_) trace_.push_back({TraceEvent::Kind::kWrite, ids[i]});
    }
    return Status::OK();
  }

  uint64_t num_blocks() const override { return backing_->num_blocks(); }
  size_t block_size() const override { return backing_->block_size(); }
  Status Flush() override { return backing_->Flush(); }

  const IoTrace& trace() const { return trace_; }
  void ClearTrace() { trace_.clear(); }

  /// Pauses/resumes recording (e.g. to skip the formatting phase, which an
  /// attacker is assumed to have already seen).
  void set_enabled(bool enabled) { enabled_ = enabled; }

 private:
  BlockDevice* backing_;
  IoTrace trace_;
  bool enabled_ = true;
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_TRACE_DEVICE_H_
