#ifndef STEGHIDE_OBS_METRICS_H_
#define STEGHIDE_OBS_METRICS_H_

// Metrics registry: named counters / gauges / histograms.
//
// Components own their instruments as plain value members (a `Cells`
// struct of CounterCells, say) and keep exposing the historical
// plain-struct `stats()` accessors as snapshot views assembled from
// relaxed atomic loads, so a reader on any thread never sees a torn value
// and writers never take a lock. A counter cell is one 64-bit word with
// one writer at a time (see CounterCell). Each such component names its
// counters once, in a table of StatRows that ties each cell to its
// `*Stats` field and its registry name; ReadRows, ResetRows and
// RegisterRows drive stats(), ResetStats() and the export from that one
// table. A `Registry` gives every instrument a flat dotted name
// ("dispatcher.requests") so benches and the StatsSnapshotter can export
// one `name -> value` map without knowing the component graph.
//
// Instrument lifetime: the registry *borrows* component-owned cells
// through a `Registration` RAII token that unregisters in the component's
// destructor; unregistering latches each instrument's final value.
// `Latch()` copies the current snapshot into the latched values, so an
// end-of-process dump survives component teardown.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace steghide::obs {

// Monotonic counter: one relaxed 64-bit word. Below the dispatcher one
// thread issues every op, so each cell has one writer at a time: the
// thread that drives its component, with any hand-off to another thread
// ordered by the component's lock or by a thread start or join. Add is
// therefore a relaxed load and store, with no locked instruction.
// AddShared is the exact read-modify-write for a cell that several
// threads write at once (the process-wide crypto traffic cells). Readers
// on any thread load the word: a snapshot may be stale, never torn.
class CounterCell {
 public:
  CounterCell() = default;
  CounterCell(const CounterCell&) = delete;
  CounterCell& operator=(const CounterCell&) = delete;

  void Add(uint64_t delta) {
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  void AddShared(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
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
  // For derived values that no cell holds (a histogram's sum, a device's
  // virtual clock). Must be safe to invoke from any thread; must not call
  // back into the Registry.
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

// One row of a component's descriptor table: a registry name (joined to
// the component's prefix with a dot; null keeps the row out of the
// registry), a cell of the component's `Cells` struct, and the field of
// its `*Stats` snapshot that reports the cell. A row is either a
// CounterCell reported as a uint64_t or a GaugeCell holding a running
// sum reported as a double.
template <typename Cells, typename Stats>
struct StatRow {
  constexpr StatRow(const char* row_name, CounterCell Cells::*cell,
                    uint64_t Stats::*field)
      : name(row_name), counter(cell), counter_field(field) {}
  constexpr StatRow(const char* row_name, GaugeCell Cells::*cell,
                    double Stats::*field)
      : name(row_name), sum(cell), sum_field(field) {}

  const char* name;
  CounterCell Cells::*counter = nullptr;
  uint64_t Stats::*counter_field = nullptr;
  GaugeCell Cells::*sum = nullptr;
  double Stats::*sum_field = nullptr;
};

// The snapshot of a table's cells; fields without a row keep their
// defaults.
template <typename Cells, typename Stats, size_t N>
Stats ReadRows(const StatRow<Cells, Stats> (&rows)[N], const Cells& cells) {
  Stats out;
  for (const auto& row : rows) {
    if (row.counter != nullptr) {
      out.*row.counter_field = (cells.*row.counter).value();
    } else {
      out.*row.sum_field = (cells.*row.sum).value();
    }
  }
  return out;
}

template <typename Cells, typename Stats, size_t N>
void ResetRows(const StatRow<Cells, Stats> (&rows)[N], Cells* cells) {
  for (const auto& row : rows) {
    if (row.counter != nullptr) {
      (cells->*row.counter).Reset();
    } else {
      (cells->*row.sum).Reset();
    }
  }
}

// Adds each named row's cell to `reg` as "<prefix>.<name>".
template <typename Cells, typename Stats, size_t N>
void RegisterRows(const StatRow<Cells, Stats> (&rows)[N], const Cells& cells,
                  const std::string& prefix, Registration* reg) {
  for (const auto& row : rows) {
    if (row.name == nullptr) continue;
    const std::string name = prefix + "." + row.name;
    if (row.counter != nullptr) {
      reg->Counter(name, &(cells.*row.counter));
    } else {
      reg->Gauge(name, &(cells.*row.sum));
    }
  }
}

}  // namespace steghide::obs

#endif  // STEGHIDE_OBS_METRICS_H_
