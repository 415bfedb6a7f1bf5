#ifndef STEGHIDE_OBS_TRACE_LOG_H_
#define STEGHIDE_OBS_TRACE_LOG_H_

// Request-span trace log.
//
// A TraceLog collects timeline events (spans, async request intervals,
// counter samples) stamped on the *virtual* disk clock, with wall-clock
// durations carried alongside as span arguments. Tracks map to Chrome
// trace_event tids, so the exported JSON renders one lane per dispatcher
// worker / shard / reorder chain in Perfetto.
//
// Leakage neutrality: the log only ever *records* — nothing downstream
// reads it back during serving, so enabling tracing cannot perturb the
// attacker-visible device trace (pinned by the trace-equivalence suites
// running with observability on).
//
// Cost when disabled: ScopedSpan checks one relaxed atomic and does
// nothing else, so instrumented code paths are safe to leave in
// production hot loops.

#include <atomic>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace steghide::obs {

struct TraceArg {
  const char* key = nullptr;  // string literal
  int64_t value = 0;
};

struct TraceEvent {
  enum class Kind : uint8_t {
    kSpan,        // complete event: [ts_ms, ts_ms + dur_ms] on `track`
    kInstant,     // point event
    kAsyncBegin,  // async interval open, matched by `id`
    kAsyncEnd,    // async interval close
    kCounter,     // sampled value (StatsSnapshotter)
  };

  const char* name = "";    // string literal, or empty when owned_name set
  std::string owned_name;   // for dynamically built names (counter samples)
  Kind kind = Kind::kSpan;
  uint32_t track = 0;
  uint64_t id = 0;          // async interval id (request sequence number)
  double ts_ms = 0.0;       // virtual clock
  double dur_ms = 0.0;      // virtual duration (spans only)
  int64_t wall_us = 0;      // wall-clock duration (spans only)
  double value = 0.0;       // counter sample
  std::array<TraceArg, 4> args{};
  uint8_t num_args = 0;

  const char* label() const {
    return owned_name.empty() ? name : owned_name.c_str();
  }
};

class TraceLog {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 18;  // ~256k events

  explicit TraceLog(size_t capacity = kDefaultCapacity);
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  // Process-wide log used by bench --trace dumps.
  static TraceLog& Default();

  // The virtual clock, e.g. [sim_device] { return device->clock_ms(); }.
  // Set before enabling; sampled under the log mutex.
  void set_clock_fn(std::function<double()> fn);

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Returns a stable track id for the exporter's tid. Re-registering the
  // same name returns the existing id.
  uint32_t RegisterTrack(const std::string& name);

  double Now() const;  // virtual clock sample; 0 when no clock_fn is set

  void Append(TraceEvent event);
  void Instant(const char* name, uint32_t track,
               std::initializer_list<TraceArg> args = {});
  void AsyncBegin(const char* name, uint64_t id, uint32_t track,
                  std::initializer_list<TraceArg> args = {});
  void AsyncEnd(const char* name, uint64_t id, uint32_t track);
  void CounterSample(std::string name, double value);

  std::vector<TraceEvent> events() const;
  std::vector<std::string> tracks() const;
  size_t size() const;
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  // Drops buffered events (tracks and clock survive).
  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::vector<std::string> tracks_;
  std::function<double()> clock_fn_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
};

// RAII span: stamps the virtual clock on entry, appends one kSpan event
// with virtual duration + wall_us on exit. `name` and arg keys must be
// string literals (the log stores the pointers). A null log or a disabled
// log reduces the whole object to a pointer compare.
class ScopedSpan {
 public:
  // The null/disabled check is inline so an inert span on the serving hot
  // path costs a pointer compare + relaxed load, no function call (the
  // overhead-guard bench enforces this).
  ScopedSpan(TraceLog* log, const char* name, uint32_t track,
             std::initializer_list<TraceArg> args = {}) {
    if (log != nullptr && log->enabled()) Begin(log, name, track, args);
  }
  ~ScopedSpan() {
    if (active_) End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_.has_value(); }
  void AddArg(const char* key, int64_t value);

 private:
  void Begin(TraceLog* log, const char* name, uint32_t track,
             std::initializer_list<TraceArg> args);
  void End();

  // What a recording span carries. POD members only: the TraceEvent,
  // with its std::string, is built in End().
  struct Active {
    TraceLog* log = nullptr;
    const char* name = "";
    uint32_t track = 0;
    uint8_t num_args = 0;
    double ts_ms = 0.0;
    std::array<TraceArg, 4> args{};  // [0, num_args) valid
    std::chrono::steady_clock::time_point wall_start{};
  };
  // Empty while inert, so an inert span stores one flag and nothing
  // else; Begin() constructs the rest.
  std::optional<Active> active_;
};

}  // namespace steghide::obs

#endif  // STEGHIDE_OBS_TRACE_LOG_H_
