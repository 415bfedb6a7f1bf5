#include "obs/trace_log.h"

#include <utility>

namespace steghide::obs {

TraceLog::TraceLog(size_t capacity) : capacity_(capacity) {
  tracks_.push_back("main");  // track 0
}

TraceLog& TraceLog::Default() {
  static TraceLog* instance = new TraceLog();
  return *instance;
}

void TraceLog::set_clock_fn(std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_fn_ = std::move(fn);
}

uint32_t TraceLog::RegisterTrack(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return static_cast<uint32_t>(i);
  }
  tracks_.push_back(name);
  return static_cast<uint32_t>(tracks_.size() - 1);
}

double TraceLog::Now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_fn_ ? clock_fn_() : 0.0;
}

void TraceLog::Append(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

void TraceLog::Instant(const char* name, uint32_t track,
                       std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.kind = TraceEvent::Kind::kInstant;
  e.track = track;
  e.ts_ms = Now();
  for (const TraceArg& a : args) {
    if (e.num_args < e.args.size()) e.args[e.num_args++] = a;
  }
  Append(std::move(e));
}

void TraceLog::AsyncBegin(const char* name, uint64_t id, uint32_t track,
                          std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.kind = TraceEvent::Kind::kAsyncBegin;
  e.track = track;
  e.id = id;
  e.ts_ms = Now();
  for (const TraceArg& a : args) {
    if (e.num_args < e.args.size()) e.args[e.num_args++] = a;
  }
  Append(std::move(e));
}

void TraceLog::AsyncEnd(const char* name, uint64_t id, uint32_t track) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.kind = TraceEvent::Kind::kAsyncEnd;
  e.track = track;
  e.id = id;
  e.ts_ms = Now();
  Append(std::move(e));
}

void TraceLog::CounterSample(std::string name, double value) {
  if (!enabled()) return;
  TraceEvent e;
  e.owned_name = std::move(name);
  e.kind = TraceEvent::Kind::kCounter;
  e.ts_ms = Now();
  e.value = value;
  Append(std::move(e));
}

std::vector<TraceEvent> TraceLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<std::string> TraceLog::tracks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tracks_;
}

size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

void ScopedSpan::Begin(TraceLog* log, const char* name, uint32_t track,
                       std::initializer_list<TraceArg> args) {
  Active& a = active_.emplace();
  a.log = log;
  a.name = name;
  a.track = track;
  a.ts_ms = log->Now();
  for (const TraceArg& arg : args) {
    if (a.num_args < a.args.size()) {
      a.args[a.num_args++] = arg;
    }
  }
  a.wall_start = std::chrono::steady_clock::now();
}

void ScopedSpan::End() {
  const Active& a = *active_;
  TraceEvent event;
  event.name = a.name;
  event.kind = TraceEvent::Kind::kSpan;
  event.track = a.track;
  event.ts_ms = a.ts_ms;
  event.dur_ms = a.log->Now() - a.ts_ms;
  event.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - a.wall_start)
                      .count();
  for (uint8_t i = 0; i < a.num_args; ++i) {
    event.args[i] = a.args[i];
  }
  event.num_args = a.num_args;
  a.log->Append(std::move(event));
}

void ScopedSpan::AddArg(const char* key, int64_t value) {
  if (!active_) return;
  Active& a = *active_;
  if (a.num_args < a.args.size()) {
    a.args[a.num_args] = TraceArg{key, value};
    ++a.num_args;
  }
}

}  // namespace steghide::obs
