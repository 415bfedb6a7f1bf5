#include "storage/fault_device.h"

#include <cstring>

namespace steghide::storage {

namespace {

bool DirectionMatches(FaultSpec::OpFilter filter, bool is_write) {
  switch (filter) {
    case FaultSpec::OpFilter::kAny:
      return true;
    case FaultSpec::OpFilter::kRead:
      return !is_write;
    case FaultSpec::OpFilter::kWrite:
      return is_write;
  }
  return false;
}

/// splitmix64: a full-period mixer, so per-op corruption patterns are
/// decorrelated even for adjacent (op, block) pairs.
uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjectionBlockDevice::FaultInjectionBlockDevice(BlockDevice* backing,
                                                     FaultPlan plan)
    : backing_(backing),
      plan_(std::move(plan)),
      states_(plan_.faults.size()) {}

uint64_t FaultInjectionBlockDevice::Mix(uint64_t op_index,
                                        uint64_t block_id) const {
  return SplitMix(plan_.seed ^ SplitMix(op_index ^ SplitMix(block_id)));
}

Status FaultInjectionBlockDevice::Op(uint64_t block_id, uint8_t* out,
                                     const uint8_t* data) {
  STEGHIDE_RETURN_IF_ERROR(CheckRange(block_id));
  const bool is_write = data != nullptr;
  const uint64_t index = op_index_++;
  cells_.ops.Increment();

  if (dead_.load(std::memory_order_relaxed)) {
    cells_.injected_errors.Increment();
    return Status::IoError("fault injection: device dead");
  }

  bool corrupt = false;
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    SpecState& state = states_[i];
    const bool in_range =
        block_id >= spec.first_block && block_id <= spec.last_block;
    // A tripped sticky region fails every later matching op outright,
    // no op-count arithmetic involved.
    if (spec.kind == FaultSpec::Kind::kStickyError && state.latched &&
        in_range && DirectionMatches(spec.ops, is_write)) {
      cells_.injected_errors.Increment();
      return Status::IoError("fault injection: sticky error");
    }
    if (!in_range || !DirectionMatches(spec.ops, is_write) ||
        !spec.Triggers(index, state.fires)) {
      continue;
    }
    ++state.fires;

    switch (spec.kind) {
      case FaultSpec::Kind::kTransientError:
        cells_.injected_errors.Increment();
        return Status::IoError("fault injection: transient error");
      case FaultSpec::Kind::kStickyError:
        state.latched = true;
        cells_.injected_errors.Increment();
        return Status::IoError("fault injection: sticky error");
      case FaultSpec::Kind::kDeath:
        dead_.store(true, std::memory_order_relaxed);
        cells_.injected_errors.Increment();
        return Status::IoError("fault injection: device died");
      case FaultSpec::Kind::kTorn: {
        if (!is_write) break;  // torn sectors are a write phenomenon
        // Persist a seeded-length prefix of the new image over the old
        // block, then fail: exactly what a power cut mid-sector leaves.
        const size_t bs = backing_->block_size();
        scratch_.resize(bs);
        STEGHIDE_RETURN_IF_ERROR(
            backing_->ReadBlock(block_id, scratch_.data()));
        const size_t torn_len = 1 + Mix(index, block_id) % (bs - 1);
        std::memcpy(scratch_.data(), data, torn_len);
        STEGHIDE_RETURN_IF_ERROR(
            backing_->WriteBlock(block_id, scratch_.data()));
        cells_.torn_writes.Increment();
        cells_.injected_errors.Increment();
        return Status::IoError("fault injection: torn write");
      }
      case FaultSpec::Kind::kCorrupt:
        if (!is_write) corrupt = true;
        break;
      case FaultSpec::Kind::kLatency:
        cells_.latency_events.Increment();
        if (latency_fn_) latency_fn_(spec.latency_ms);
        break;
      case FaultSpec::Kind::kPartition:
      case FaultSpec::Kind::kDelayRpc:
      case FaultSpec::Kind::kDropConnection:
        // Transport-layer kinds: interpreted by TransportFaultController
        // against the frame stream, a no-op on the block-op stream.
        break;
    }
  }

  if (is_write) {
    return backing_->WriteBlock(block_id, data);
  }
  STEGHIDE_RETURN_IF_ERROR(backing_->ReadBlock(block_id, out));
  if (corrupt) {
    // Flip a handful of seeded bytes: silent bit-rot the caller cannot
    // see in the Status, only in the payload (or via a replica scrub).
    const size_t bs = backing_->block_size();
    uint64_t r = Mix(index, block_id);
    const size_t flips = 1 + r % 8;
    for (size_t f = 0; f < flips; ++f) {
      r = SplitMix(r);
      out[r % bs] ^= static_cast<uint8_t>(0x01u << ((r >> 32) % 8));
    }
    cells_.corrupted_blocks.Increment();
  }
  return Status::OK();
}

Status FaultInjectionBlockDevice::ReadBlocks(std::span<const uint64_t> ids,
                                             uint8_t* out) {
  const size_t bs = backing_->block_size();
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(Op(ids[i], out + i * bs, nullptr));
  }
  return Status::OK();
}

Status FaultInjectionBlockDevice::WriteBlocks(std::span<const uint64_t> ids,
                                              const uint8_t* data) {
  const size_t bs = backing_->block_size();
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(Op(ids[i], nullptr, data + i * bs));
  }
  return Status::OK();
}

Status FaultInjectionBlockDevice::Flush() {
  if (dead_.load(std::memory_order_relaxed)) {
    cells_.injected_errors.Increment();
    return Status::IoError("fault injection: device dead");
  }
  return backing_->Flush();
}

void FaultInjectionBlockDevice::RegisterMetrics(obs::Registry* registry,
                                                const std::string& prefix) {
  registration_ = obs::Registration(registry);
  registration_.Counter(prefix + ".ops", &cells_.ops);
  registration_.Counter(prefix + ".injected_errors",
                        &cells_.injected_errors);
  registration_.Counter(prefix + ".corrupted_blocks",
                        &cells_.corrupted_blocks);
  registration_.Counter(prefix + ".torn_writes", &cells_.torn_writes);
  registration_.Counter(prefix + ".latency_events", &cells_.latency_events);
}

}  // namespace steghide::storage
