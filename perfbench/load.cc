#include "load.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "timing_device.h"

namespace perfbench {
namespace {

namespace sh = steghide;
using Clock = std::chrono::steady_clock;

constexpr double kForever = std::numeric_limits<double>::infinity();

/// While a read is the oldest request and writes are in flight, the
/// generator re-checks at this interval: a commit cycle acknowledges its
/// writes before its reads, so a younger write may finish first.
constexpr double kMixedPollMs = 0.1;

double UsageSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

double ThreadCpuSeconds() { return UsageSeconds(RUSAGE_THREAD); }

double SystemCpuSeconds() {
  return UsageSeconds(RUSAGE_SELF) - ThreadCpuSeconds();
}

namespace {

Clock::time_point AtMs(double ms) {
  return Epoch() + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
}

struct InFlight {
  Request req;
  uint32_t version = 0;  // writes: the version being written
  double base_ms = 0.0;  // latency origin
  std::future<sh::Result<sh::Bytes>> read;
  std::future<sh::Status> write;

  bool Ready() const {
    const auto zero = std::chrono::seconds(0);
    return (req.write ? write.wait_for(zero) : read.wait_for(zero)) ==
           std::future_status::ready;
  }
  void WaitUntil(double until_ms) const {
    if (std::isinf(until_ms)) {
      req.write ? write.wait() : read.wait();
    } else if (req.write) {
      write.wait_until(AtMs(until_ms));
    } else {
      read.wait_until(AtMs(until_ms));
    }
  }
};

/// Single-threaded request generator: submits, tracks what is in flight
/// (oldest first), and completes requests against the reference model.
class Generator {
 public:
  Generator(System& system, sh::agent::RequestDispatcher& dispatcher,
            ReferenceModel& reference, RequestStream& stream,
            LoadResult& result)
      : system_(system),
        dispatcher_(dispatcher),
        reference_(reference),
        stream_(stream),
        result_(result),
        busy_(kBlocks, 0) {}

  size_t in_flight() const { return in_flight_.size(); }

  /// Submits the next request of the stream, first waiting out any
  /// request still in flight on its block. `base_ms` is the latency
  /// origin (NaN = the submission time). Returns the submission time.
  double Submit(double base_ms) {
    const Request req = stream_.Next();
    if (busy_[req.block] != 0) {
      ++result_.conflict_waits;
      while (busy_[req.block] != 0) WaitNext(kForever);
    }
    InFlight f;
    f.req = req;
    const auto file = system_.file_of(req.block);
    const uint64_t offset = system_.offset_of(req.block);
    sh::Bytes data;
    if (req.write) {
      f.version = reference_.version(req.block) + 1;
      data = reference_.Pattern(req.block, f.version);
    }
    const double now = WallMs();
    f.base_ms = std::isnan(base_ms) ? now : base_ms;
    if (req.write) {
      f.write = dispatcher_.SubmitWrite(file, offset, std::move(data));
      ++writes_in_flight_;
    } else {
      f.read = dispatcher_.SubmitRead(file, offset, system_.payload());
    }
    busy_[req.block] = 1;
    ++result_.attempted;
    in_flight_.push_back(std::move(f));
    return now;
  }

  /// Waits until the request expected to finish first has finished (or
  /// until `until_ms`), then completes every request that is ready.
  void WaitNext(double until_ms) {
    if (in_flight_.empty()) return;
    const InFlight& oldest = in_flight_.front();
    double limit = until_ms;
    if (!oldest.req.write && writes_in_flight_ > 0) {
      limit = std::min(limit, WallMs() + kMixedPollMs);
    }
    oldest.WaitUntil(limit);
    const double now = WallMs();
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      if (it->Ready()) {
        Complete(*it, now);
        it = in_flight_.erase(it);
      } else {
        ++it;
      }
    }
    if (completed_ >= next_mark_) {
      result_.marks.emplace_back(WallMs(), SystemCpuSeconds());
      next_mark_ += window_;
    }
  }

  /// Starts marks at `t0_ms`, one every `window` completions.
  void StartMarks(double t0_ms, uint64_t window) {
    result_.marks.emplace_back(t0_ms, SystemCpuSeconds());
    window_ = window;
    next_mark_ = window;
  }

  uint64_t CountDueBefore(double ms) const {
    return static_cast<uint64_t>(
        std::count_if(in_flight_.begin(), in_flight_.end(),
                      [ms](const InFlight& f) { return f.base_ms < ms; }));
  }

 private:
  void Fail(std::string error) {
    ++result_.failed;
    if (result_.first_error.empty()) result_.first_error = std::move(error);
  }

  void Complete(InFlight& f, double now_ms) {
    const uint32_t block = f.req.block;
    busy_[block] = 0;
    ++completed_;
    const double latency_us = (now_ms - f.base_ms) * 1000.0;
    if (f.req.write) {
      --writes_in_flight_;
      const sh::Status status = f.write.get();
      if (!status.ok()) {
        Fail("write of block " + std::to_string(block) + ": " +
             status.ToString());
        return;
      }
      reference_.Ack(block, f.version);
      result_.write_us.push_back(latency_us);
      result_.write_done_ms.push_back(now_ms);
      return;
    }
    sh::Result<sh::Bytes> got = f.read.get();
    if (!got.ok()) {
      Fail("read of block " + std::to_string(block) + ": " +
           got.status().ToString());
      return;
    }
    if (!reference_.Matches(block, *got)) {
      Fail("read of block " + std::to_string(block) +
           " differs from the reference");
      return;
    }
    result_.read_us.push_back(latency_us);
    result_.read_done_ms.push_back(now_ms);
    if (!result_.checker_live) {
      sh::Bytes corrupted = std::move(got).value();
      corrupted[corrupted.size() / 2] ^= 0x01;
      result_.checker_live = !reference_.Matches(block, corrupted);
    }
  }

  System& system_;
  sh::agent::RequestDispatcher& dispatcher_;
  ReferenceModel& reference_;
  RequestStream& stream_;
  LoadResult& result_;
  std::deque<InFlight> in_flight_;
  std::vector<uint8_t> busy_;  // per block: a request is in flight
  size_t writes_in_flight_ = 0;
  uint64_t completed_ = 0;
  uint64_t window_ = 0;
  uint64_t next_mark_ = std::numeric_limits<uint64_t>::max();
};

void RunClosed(Generator& gen, sh::agent::RequestDispatcher& dispatcher,
               const LoadSpec& spec, LoadResult& result) {
  // Open sessions set the dispatcher's fill target: a group commits once
  // every session has a request pending.
  std::vector<std::unique_ptr<sh::agent::RequestDispatcher::Session>>
      sessions;
  for (size_t i = 0; i < spec.sessions; ++i) {
    sessions.push_back(dispatcher.OpenSession());
  }
  result.t0_ms = WallMs();
  gen.StartMarks(result.t0_ms, kWindowRequests);
  const double end =
      spec.seconds > 0 ? result.t0_ms + spec.seconds * 1000.0 : kForever;
  auto issuing = [&] {
    return WallMs() < end &&
           (spec.max_requests == 0 || result.attempted < spec.max_requests);
  };
  const double kNow = std::numeric_limits<double>::quiet_NaN();
  while (gen.in_flight() < sessions.size() && issuing()) gen.Submit(kNow);
  while (gen.in_flight() > 0) {
    gen.WaitNext(kForever);
    if (issuing()) {
      while (gen.in_flight() < sessions.size() && issuing()) gen.Submit(kNow);
    } else {
      // Draining: close the sessions that will not submit again, so the
      // remaining groups commit without waiting out the window.
      while (sessions.size() > gen.in_flight()) sessions.pop_back();
    }
  }
  result.t1_ms = WallMs();
}

void RunOpen(Generator& gen, ArrivalStream& arrivals, const LoadSpec& spec,
             LoadResult& result) {
  result.t0_ms = WallMs();
  gen.StartMarks(result.t0_ms, kOpenWindowRequests);
  const double end = result.t0_ms + spec.seconds * 1000.0;
  for (double due = result.t0_ms + arrivals.NextMs(); due < end;
       due = result.t0_ms + arrivals.NextMs()) {
    // Sleep (never spin) until the due time, completing whatever finishes
    // meanwhile.
    while (WallMs() < due) {
      if (gen.in_flight() == 0) {
        std::this_thread::sleep_until(AtMs(due));
      } else {
        gen.WaitNext(due);
      }
    }
    const double sent = gen.Submit(due);
    result.late_us.push_back((sent - due) * 1000.0);
  }
  result.backlog_end = gen.CountDueBefore(WallMs() - kBacklogAgeMs);
  while (gen.in_flight() > 0) gen.WaitNext(kForever);
  result.t1_ms = WallMs();
}

}  // namespace

LoadResult RunLoad(System& system,
                   steghide::agent::RequestDispatcher& dispatcher,
                   ReferenceModel& reference, RequestStream& stream,
                   ArrivalStream* arrivals, const LoadSpec& spec) {
  LoadResult result;
  Generator gen(system, dispatcher, reference, stream, result);
  if (spec.open_loop) {
    RunOpen(gen, *arrivals, spec, result);
  } else {
    RunClosed(gen, dispatcher, spec, result);
  }
  return result;
}

}  // namespace perfbench
