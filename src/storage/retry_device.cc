#include "storage/retry_device.h"

namespace steghide::storage {

Status RetryingBlockDevice::Retry(size_t blocks,
                                  const std::function<Status()>& call) {
  Status status = call();
  if (status.ok()) return status;
  for (int attempt = 1; attempt < policy_.max_attempts; ++attempt) {
    if (status.code() != StatusCode::kIoError) return status;
    if (latency_fn_) latency_fn_(policy_.BackoffFor(attempt - 1));
    cells_.retries.Increment();
    if (trace_ != nullptr) {
      trace_->Instant("io.retry", trace_track_,
                      {{"attempt", attempt},
                       {"blocks", static_cast<int64_t>(blocks)}});
    }
    status = call();
    if (status.ok()) {
      cells_.recovered.Increment();
      return status;
    }
  }
  if (policy_.max_attempts > 1 && status.code() == StatusCode::kIoError) {
    cells_.exhausted.Increment();
  }
  return status;
}

Status RetryingBlockDevice::ReadBlocks(std::span<const uint64_t> ids,
                                       uint8_t* out) {
  return Retry(ids.size(), [&] { return backing_->ReadBlocks(ids, out); });
}

Status RetryingBlockDevice::WriteBlocks(std::span<const uint64_t> ids,
                                        const uint8_t* data) {
  return Retry(ids.size(),
               [&] { return backing_->WriteBlocks(ids, data); });
}

Status RetryingBlockDevice::Flush() {
  return Retry(0, [&] { return backing_->Flush(); });
}

void RetryingBlockDevice::RegisterMetrics(obs::Registry* registry,
                                          const std::string& prefix) {
  registration_ = obs::Registration(registry);
  registration_.Counter(prefix + ".retries", &cells_.retries);
  registration_.Counter(prefix + ".recovered", &cells_.recovered);
  registration_.Counter(prefix + ".exhausted", &cells_.exhausted);
}

}  // namespace steghide::storage
