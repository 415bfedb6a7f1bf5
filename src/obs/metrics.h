#ifndef STEGHIDE_OBS_METRICS_H_
#define STEGHIDE_OBS_METRICS_H_

// Metrics registry: named counters / gauges / histograms with an atomic,
// sharded hot path.
//
// Components own their instruments as plain value members (a `Cells`
// struct of CounterCells, say) and keep exposing the
// historical plain-struct `stats()` accessors as snapshot views assembled
// from atomic loads — concurrent readers never see torn values and writers
// never take a lock. A `Registry` additionally gives every instrument a
// flat dotted name ("dispatcher.requests") so benches and the
// StatsSnapshotter can export one `name -> value` map without knowing the
// component graph.
//
// Instrument lifetime: the registry *borrows* component-owned cells
// through a `Registration` RAII token that unregisters in the component's
// destructor; unregistering latches each instrument's final value.
// `Latch()` copies the current snapshot into the latched values, so an
// end-of-process dump survives component teardown.

#include <atomic>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace steghide::obs {

// Monotonic counter, striped across cache lines so concurrent writers on
// different threads do not bounce one line. Reads sum the stripes
// (relaxed loads): a snapshot taken mid-increment is merely slightly
// stale, never torn.
class CounterCell {
 public:
  CounterCell() = default;
  CounterCell(const CounterCell&) = delete;
  CounterCell& operator=(const CounterCell&) = delete;

  void Add(uint64_t delta) {
    const size_t slot = SlotIndex();
    std::atomic<uint64_t>& v = stripes_[slot].v;
    if (slot < kExclusiveSlots) {
      // This slot is written by exactly one thread, so a relaxed
      // load+store pair (no lock prefix) is exact — and roughly 10x
      // cheaper than fetch_add, which is what keeps the instrumented
      // hot path inside the overhead-guard bench's budget.
      v.store(v.load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
    } else {
      v.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  void Increment() { Add(1); }
  /// Modular subtraction (stripes sum mod 2^64): valid as long as the
  /// logical value stays non-negative, e.g. reclassifying one count.
  void Subtract(uint64_t delta) { Add(~delta + 1); }

  uint64_t value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  // The first kExclusiveSlots threads to ever touch a counter each own a
  // private slot (fast non-RMW path in Add); later threads hash onto the
  // shared fetch_add stripes, which keeps many-thread dispatch sweeps at
  // the old striped-contention behavior. Slot ids are process-global and
  // never recycled, so a thread's slot is exclusive across all cells.
  static constexpr size_t kExclusiveSlots = 16;
  static constexpr size_t kSharedStripes = 8;
  static constexpr size_t kStripes = kExclusiveSlots + kSharedStripes;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  // Inline so Add() compiles down to a TLS load, a predictable branch,
  // and the slot update — the overhead-guard bench holds the hot path to
  // a few percent of its uninstrumented twin, and an out-of-line call
  // here was the single biggest cost.
  static size_t SlotIndex() {
    thread_local const size_t slot = ClaimSlot();
    return slot;
  }
  static size_t ClaimSlot();  // once per thread; out-of-line is fine

  std::array<Stripe, kStripes> stripes_{};
};

// Last-value-wins gauge (a double, e.g. "reorder.pending_steps").
class GaugeCell {
 public:
  GaugeCell() = default;
  GaugeCell(const GaugeCell&) = delete;
  GaugeCell& operator=(const GaugeCell&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Lock-free log-linear histogram (HdrHistogram-style): 64 sub-buckets per
// power of two gives a <= 1/64 relative bucket width, so any reported
// percentile is within ~0.8% of the exact order statistic (midpoint
// representative). Values are doubles >= 0; negative/NaN clamp to the
// underflow bucket. Record() is two relaxed fetch_adds plus CAS min/max —
// cheap enough for per-request latency stamps.
class HistogramCell {
 public:
  HistogramCell() = default;
  HistogramCell(const HistogramCell&) = delete;
  HistogramCell& operator=(const HistogramCell&) = delete;

  void Record(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  double min() const;  // 0 when empty
  double mean() const;

  // Mirrors the nearest-rank convention of a reference
  // `sorted[min(n-1, floor(q/100 * n))]` so tests can compare against a
  // plain sort. q in [0, 100].
  double Percentile(double q) const;

  void Reset();

 private:
  // frexp exponents in (kMinExp, kMaxExp] get 64 sub-buckets each;
  // anything at or below 2^(kMinExp-1) (including 0) lands in the
  // underflow bucket, anything above 2^kMaxExp in the overflow bucket.
  // Virtual-clock spans run micro-ms to minutes: ~2^-20 .. 2^40 covers
  // every instrumented quantity with headroom.
  static constexpr int kMinExp = -20;
  static constexpr int kMaxExp = 40;
  static constexpr size_t kSubBuckets = 64;
  static constexpr size_t kBuckets =
      static_cast<size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  static size_t BucketFor(double v);
  static double BucketMidpoint(size_t bucket);

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_value_{false};
};

class Registry;

// RAII bundle of borrowed-instrument registrations; unregisters everything
// on destruction (component teardown). A default-constructed (or
// nullptr-registry) Registration turns every call into a no-op, which is
// how components stay zero-cost when observability is off.
class Registration {
 public:
  Registration() = default;
  explicit Registration(Registry* registry) : registry_(registry) {}
  ~Registration() { Release(); }

  Registration(Registration&& other) noexcept { *this = std::move(other); }
  Registration& operator=(Registration&& other) noexcept;
  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;

  void Counter(const std::string& name, const CounterCell* cell);
  void Gauge(const std::string& name, const GaugeCell* cell);
  void Histogram(const std::string& name, const HistogramCell* cell);
  // For values only reachable through a component lock (e.g. doubles
  // accumulated under a store mutex). Must be safe to invoke from any
  // thread; must not call back into the Registry.
  void Callback(const std::string& name, std::function<double()> fn);

  void Release();

 private:
  Registry* registry_ = nullptr;
  std::vector<std::string> names_;
};

// Flat name -> instrument map. Thread-safe. Snapshot() expands histograms
// into <name>.count/.mean/.p50/.p90/.p99/.max sub-keys.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Process-wide registry used by bench --metrics dumps.
  static Registry& Default();

  std::map<std::string, double> Snapshot() const;

  // Copies the current snapshot into latched values that survive
  // unregistration, so end-of-run dumps can outlive the components.
  void Latch();

 private:
  friend class Registration;

  struct Source {
    const CounterCell* counter = nullptr;
    const GaugeCell* gauge = nullptr;
    const HistogramCell* histogram = nullptr;
    std::function<double()> callback;
  };

  void Register(const std::string& name, Source source);
  void Unregister(const std::string& name);
  static void Expand(const std::string& name, const Source& source,
                     std::map<std::string, double>* out);

  mutable std::mutex mu_;
  std::map<std::string, Source> sources_;
  std::map<std::string, double> latched_;
};

}  // namespace steghide::obs

#endif  // STEGHIDE_OBS_METRICS_H_
