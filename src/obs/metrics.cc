#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace steghide::obs {

void HistogramCell::Record(double v) {
  buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  if (!has_value_.exchange(true, std::memory_order_relaxed)) {
    // First recorder seeds min/max; racing recorders fall through to the
    // CAS loops below, so the seed can only be tightened, never lost.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (v < lo &&
         !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (v > hi &&
         !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
}

double HistogramCell::min() const {
  return has_value_.load(std::memory_order_relaxed)
             ? min_.load(std::memory_order_relaxed)
             : 0.0;
}

double HistogramCell::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double HistogramCell::Percentile(double q) const {
  const uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  const uint64_t index = std::min<uint64_t>(
      n - 1, static_cast<uint64_t>(q / 100.0 * static_cast<double>(n)));
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    cumulative += buckets_[b].load(std::memory_order_relaxed);
    if (cumulative > index) {
      // Exact endpoints beat the midpoint approximation when the order
      // statistic is pinned by the observed range.
      if (b == BucketFor(min())) return std::max(min(), 0.0);
      if (index == n - 1) return max();
      return BucketMidpoint(b);
    }
  }
  return max();
}

void HistogramCell::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  has_value_.store(false, std::memory_order_relaxed);
}

size_t HistogramCell::BucketFor(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) return 0;
  int exp = 0;
  const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5,1)
  if (exp <= kMinExp) return 0;
  if (exp > kMaxExp) return kBuckets - 1;
  size_t sub = static_cast<size_t>((frac - 0.5) * 2.0 *
                                   static_cast<double>(kSubBuckets));
  sub = std::min(sub, kSubBuckets - 1);
  return 1 + static_cast<size_t>(exp - kMinExp - 1) * kSubBuckets + sub;
}

double HistogramCell::BucketMidpoint(size_t bucket) {
  if (bucket == 0) return 0.0;
  if (bucket == kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const size_t linear = bucket - 1;
  const int exp = kMinExp + 1 + static_cast<int>(linear / kSubBuckets);
  const double sub = static_cast<double>(linear % kSubBuckets);
  const double frac =
      0.5 + (sub + 0.5) * 0.5 / static_cast<double>(kSubBuckets);
  return std::ldexp(frac, exp);
}

Registration& Registration::operator=(Registration&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = other.registry_;
    names_ = std::move(other.names_);
    other.registry_ = nullptr;
    other.names_.clear();
  }
  return *this;
}

void Registration::Counter(const std::string& name, const CounterCell* cell) {
  if (registry_ == nullptr) return;
  Registry::Source source;
  source.counter = cell;
  registry_->Register(name, std::move(source));
  names_.push_back(name);
}

void Registration::Gauge(const std::string& name, const GaugeCell* cell) {
  if (registry_ == nullptr) return;
  Registry::Source source;
  source.gauge = cell;
  registry_->Register(name, std::move(source));
  names_.push_back(name);
}

void Registration::Histogram(const std::string& name,
                             const HistogramCell* cell) {
  if (registry_ == nullptr) return;
  Registry::Source source;
  source.histogram = cell;
  registry_->Register(name, std::move(source));
  names_.push_back(name);
}

void Registration::Callback(const std::string& name,
                            std::function<double()> fn) {
  if (registry_ == nullptr) return;
  Registry::Source source;
  source.callback = std::move(fn);
  registry_->Register(name, std::move(source));
  names_.push_back(name);
}

void Registration::Release() {
  if (registry_ != nullptr) {
    for (const std::string& name : names_) registry_->Unregister(name);
  }
  registry_ = nullptr;
  names_.clear();
}

Registry& Registry::Default() {
  static Registry* instance = new Registry();
  return *instance;
}

void Registry::Expand(const std::string& name, const Source& source,
                      std::map<std::string, double>* out) {
  if (source.counter != nullptr) {
    (*out)[name] = static_cast<double>(source.counter->value());
  } else if (source.gauge != nullptr) {
    (*out)[name] = source.gauge->value();
  } else if (source.histogram != nullptr) {
    const HistogramCell& h = *source.histogram;
    (*out)[name + ".count"] = static_cast<double>(h.count());
    (*out)[name + ".mean"] = h.mean();
    (*out)[name + ".p50"] = h.Percentile(50.0);
    (*out)[name + ".p90"] = h.Percentile(90.0);
    (*out)[name + ".p99"] = h.Percentile(99.0);
    (*out)[name + ".max"] = h.max();
  } else if (source.callback) {
    (*out)[name] = source.callback();
  }
}

std::map<std::string, double> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out = latched_;
  for (const auto& [name, source] : sources_) {
    Expand(name, source, &out);
  }
  return out;
}

void Registry::Latch() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, source] : sources_) {
    Expand(name, source, &latched_);
  }
}

void Registry::Register(const std::string& name, Source source) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_[name] = std::move(source);
}

void Registry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(name);
  if (it == sources_.end()) return;
  // Keep the final value readable after the component dies: latch before
  // dropping the borrowed pointer.
  Expand(name, it->second, &latched_);
  sources_.erase(it);
}

}  // namespace steghide::obs
