#include "agent/dispatch/request_dispatcher.h"

#include <algorithm>
#include <cmath>

namespace steghide::agent {

namespace {

/// Track and metric prefix of the dispatcher's observability output.
constexpr char kObsPrefix[] = "dispatcher";
/// Consecutive failed maintenance slices that count as one escalation.
constexpr size_t kMaintenanceRetryLimit = 8;
/// Failed-slice retry delay: the base doubles per consecutive failure
/// up to the cap.
constexpr std::chrono::microseconds kMaintenanceRetryBackoff{500};
constexpr std::chrono::microseconds kMaintenanceRetryCap{50'000};

std::chrono::microseconds RetryBackoff(size_t consecutive_failures) {
  std::chrono::microseconds delay = kMaintenanceRetryBackoff;
  for (size_t i = 1;
       i < consecutive_failures && delay < kMaintenanceRetryCap; ++i) {
    delay *= 2;
  }
  return std::min(delay, kMaintenanceRetryCap);
}

}  // namespace

RequestDispatcher::RequestDispatcher(ObliviousAgent* agent,
                                     DispatcherOptions options)
    : agent_(agent), options_(std::move(options)) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  // Wire observability before the worker starts so the thread never
  // races a registration (the thread-create is the synchronizing edge).
  if (options_.trace != nullptr) {
    trace_track_ = options_.trace->RegisterTrack(kObsPrefix);
  }
  if (options_.registry != nullptr) {
    registration_ = obs::Registration(options_.registry);
    const std::string p = kObsPrefix;
    registration_.Counter(p + ".requests", &cells_.requests);
    registration_.Counter(p + ".read_requests", &cells_.read_requests);
    registration_.Counter(p + ".write_requests", &cells_.write_requests);
    registration_.Counter(p + ".groups", &cells_.groups);
    registration_.Counter(p + ".read_groups", &cells_.read_groups);
    registration_.Counter(p + ".write_groups", &cells_.write_groups);
    registration_.Counter(p + ".grouped_requests", &cells_.grouped_requests);
    registration_.Counter(p + ".maintenance_pumps",
                          &cells_.maintenance_pumps);
    registration_.Counter(p + ".maintenance_pump_errors",
                          &cells_.maintenance_pump_errors);
    registration_.Counter(p + ".maintenance_pump_retries",
                          &cells_.maintenance_pump_retries);
    registration_.Counter(p + ".maintenance_escalations",
                          &cells_.maintenance_escalations);
    registration_.Histogram(p + ".latency_ms", &cells_.latency_ms);
    registration_.Histogram(p + ".fill", &cells_.fill);
    registration_.Gauge(p + ".queue_depth", &cells_.queue_depth);
  }
  worker_ = std::thread([this] { WorkerLoop(); });
}

RequestDispatcher::~RequestDispatcher() { Stop(); }

std::unique_ptr<RequestDispatcher::Session> RequestDispatcher::OpenSession() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++open_sessions_;
    sessions_seen_ = true;
  }
  return std::unique_ptr<Session>(new Session(this));
}

void RequestDispatcher::CloseSession() {
  std::lock_guard<std::mutex> lock(mu_);
  --open_sessions_;
  // A shrinking session population can lower the fill target below the
  // current queue depth; wake the worker so it does not wait the window
  // out for users that no longer exist.
  cv_.notify_all();
}

RequestDispatcher::Session::~Session() { dispatcher_->CloseSession(); }

Result<Bytes> RequestDispatcher::Session::Read(FileId file, uint64_t offset,
                                               size_t n) {
  return AsyncRead(file, offset, n).get();
}

Status RequestDispatcher::Session::Write(FileId file, uint64_t offset,
                                         Bytes data) {
  return AsyncWrite(file, offset, std::move(data)).get();
}

std::future<Result<Bytes>> RequestDispatcher::Session::AsyncRead(
    FileId file, uint64_t offset, size_t n) {
  return dispatcher_->SubmitRead(file, offset, n);
}

std::future<Status> RequestDispatcher::Session::AsyncWrite(FileId file,
                                                           uint64_t offset,
                                                           Bytes data) {
  return dispatcher_->SubmitWrite(file, offset, std::move(data));
}

std::future<Result<Bytes>> RequestDispatcher::SubmitRead(FileId file,
                                                         uint64_t offset,
                                                         size_t n) {
  Pending pending;
  pending.kind = Pending::Kind::kRead;
  pending.read = ObliviousAgent::ReadRequest{file, offset, n};
  pending.arrive_clock = Clock();
  std::future<Result<Bytes>> future = pending.read_promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      pending.read_promise.set_value(
          Status::FailedPrecondition("dispatcher stopped"));
      return future;
    }
    pending.seq = next_seq_++;
    if (options_.trace != nullptr) {
      options_.trace->AsyncBegin("dispatch.request", pending.seq,
                                 trace_track_, {{"write", 0}});
    }
    queue_.push_back(std::move(pending));
  }
  cv_.notify_all();
  return future;
}

std::future<Status> RequestDispatcher::SubmitWrite(FileId file,
                                                   uint64_t offset,
                                                   Bytes data) {
  Pending pending;
  pending.kind = Pending::Kind::kWrite;
  pending.write = ObliviousAgent::WriteRequest{file, offset, std::move(data)};
  pending.arrive_clock = Clock();
  std::future<Status> future = pending.write_promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      pending.write_promise.set_value(
          Status::FailedPrecondition("dispatcher stopped"));
      return future;
    }
    pending.seq = next_seq_++;
    if (options_.trace != nullptr) {
      options_.trace->AsyncBegin("dispatch.request", pending.seq,
                                 trace_track_, {{"write", 1}});
    }
    queue_.push_back(std::move(pending));
  }
  cv_.notify_all();
  return future;
}

void RequestDispatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // call_once so concurrent Stop()s (e.g. an explicit Stop racing the
  // destructor) cannot double-join.
  std::call_once(join_once_, [this] {
    if (worker_.joinable()) worker_.join();
  });
}

size_t RequestDispatcher::FillTargetLocked() const {
  // Under session usage each user has at most one request in flight, so
  // once every open session has submitted there is nothing to wait for.
  // When every session has *closed*, the same rule holds vacuously: the
  // requests already queued (submitted async, session since torn down)
  // are the whole group, and waiting the window out would stall them for
  // users that no longer exist. Only a dispatcher that never saw a
  // session (direct submits) targets the full batch and lets the commit
  // window bound the tail.
  if (open_sessions_ == 0) {
    return sessions_seen_ ? 1 : options_.max_batch;
  }
  return std::min(options_.max_batch, open_sessions_);
}

RequestDispatcher::PumpResult RequestDispatcher::PumpMaintenance() {
  if (options_.maintenance_budget == 0) return PumpResult::kIdle;
  if (agent_->store().reorder_pending()) {
    obs::ScopedSpan span(options_.trace, "dispatch.pump", trace_track_);
    auto more = agent_->PumpReorder(options_.maintenance_budget);
    if (!more.ok()) {
      // A failed slice must not read as "drained": the chain stays
      // pending, and the worker must keep polling (bounded backoff) —
      // parking on the condvar here is the historical wedge: nothing
      // ever signals it while the only remaining work is the chain's.
      cells_.maintenance_pump_errors.Increment();
      return PumpResult::kFailed;
    }
    // Counts slices that advanced work — including the one that drains
    // the chain dry.
    cells_.maintenance_pumps.Increment();
    if (*more) return PumpResult::kMore;
  }
  // Chain idle: spend the gap on secondary maintenance (replica repair).
  if (options_.extra_maintenance) {
    obs::ScopedSpan span(options_.trace, "dispatch.repair", trace_track_);
    auto more = options_.extra_maintenance(options_.maintenance_budget);
    if (!more.ok()) {
      cells_.maintenance_pump_errors.Increment();
      return PumpResult::kFailed;
    }
    if (*more) {
      cells_.maintenance_pumps.Increment();
      return PumpResult::kMore;
    }
  }
  return PumpResult::kIdle;
}

void RequestDispatcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  // Consecutive failed maintenance slices; drives the retry backoff and
  // the escalation alarm, reset by any slice that succeeds.
  size_t pump_failures = 0;
  for (;;) {
    // Idle: while no requests are pending, spend the gap pumping any
    // deamortized re-order backlog (one bounded slice per poll, so a
    // fresh submission is picked up at chunk granularity); block on the
    // condvar only once the backlog is drained. A *failed* slice is not
    // a drained one: it retries after a bounded backoff — an indefinite
    // wait here with the chain still pending is the stuck-maintenance
    // bug (nothing signals the condvar when the only remaining work is
    // the chain's own).
    while (!stopping_ && queue_.empty()) {
      lock.unlock();
      const PumpResult pump = PumpMaintenance();
      lock.lock();
      if (stopping_ || !queue_.empty()) break;
      if (pump == PumpResult::kMore) {
        pump_failures = 0;
        continue;
      }
      if (pump == PumpResult::kFailed) {
        ++pump_failures;
        cells_.maintenance_pump_retries.Increment();
        if (pump_failures == kMaintenanceRetryLimit) {
          cells_.maintenance_escalations.Increment();
          if (options_.trace != nullptr) {
            options_.trace->Instant(
                "dispatch.pump_stuck", trace_track_,
                {{"failures", static_cast<int64_t>(pump_failures)}});
          }
        }
        cv_.wait_for(lock, RetryBackoff(pump_failures),
                     [&] { return stopping_ || !queue_.empty(); });
        continue;
      }
      pump_failures = 0;
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    }
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }

    // Group commit: linger (bounded) for the group to fill. Submissions
    // and session closes signal cv_, so the loop re-evaluates the fill
    // target as the population changes; stopping flushes immediately.
    // The linger is another idle gap: re-order slices run while the
    // group fills, with the deadline still capping scheduling latency.
    const auto deadline =
        std::chrono::steady_clock::now() + options_.commit_window;
    while (!stopping_ && queue_.size() < FillTargetLocked()) {
      lock.unlock();
      // kFailed counts as "no more": the linger loop is already bounded
      // by the deadline, so the retry happens on the next idle pass.
      const bool more = PumpMaintenance() == PumpResult::kMore;
      lock.lock();
      if (std::chrono::steady_clock::now() >= deadline) break;
      if (stopping_ || queue_.size() >= FillTargetLocked()) break;
      if (!more &&
          cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }

    std::vector<Pending> group;
    cells_.queue_depth.Set(static_cast<double>(queue_.size()));
    const size_t take = std::min(options_.max_batch, queue_.size());
    group.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }

    lock.unlock();
    CommitGroup(group);
    // Post-commit gap: callers are busy digesting their futures; slip
    // one re-order slice in before looking for the next group.
    PumpMaintenance();
    if (options_.snapshotter != nullptr) options_.snapshotter->MaybeSample();
    lock.lock();
  }
}

void RequestDispatcher::CommitGroup(std::vector<Pending>& group) {
  obs::ScopedSpan span(options_.trace, "dispatch.commit", trace_track_,
                       {{"n", static_cast<int64_t>(group.size())}});
  // Partition while preserving arrival order within each kind.
  std::vector<size_t> read_at, write_at;
  for (size_t i = 0; i < group.size(); ++i) {
    (group[i].kind == Pending::Kind::kRead ? read_at : write_at).push_back(i);
  }

  // Writes first: a caller that completed a write before submitting a
  // dependent read must observe its own data even when both land in the
  // same cycle.
  //
  // Failure isolation for writes: each member's file handle is
  // validated before the commit (a metadata lookup, no storage I/O), so
  // one user's stale handle fails that user alone instead of poisoning
  // the group. A failure *during* the committed group is different —
  // earlier members may already be persisted, and re-running them would
  // duplicate their relocating updates — so it propagates to the whole
  // group as-is.
  if (!write_at.empty()) {
    std::vector<size_t> valid_at;
    std::vector<ObliviousAgent::WriteRequest> requests;
    valid_at.reserve(write_at.size());
    requests.reserve(write_at.size());
    for (const size_t i : write_at) {
      const auto size = agent_->FileSize(group[i].write.file);
      if (!size.ok()) {
        group[i].write_promise.set_value(size.status());
        continue;
      }
      valid_at.push_back(i);
      requests.push_back(std::move(group[i].write));
    }
    if (!valid_at.empty()) {
      const Status status = agent_->WriteGroup(requests);
      for (const size_t i : valid_at) {
        group[i].write_promise.set_value(status);
      }
    }
  }

  // Reads have no side effects on the StegFS partition, so a failed
  // group (e.g. one stale handle) simply retries each member
  // individually — per-request semantics on the error path, batched on
  // the common one.
  if (!read_at.empty()) {
    std::vector<ObliviousAgent::ReadRequest> requests;
    requests.reserve(read_at.size());
    for (const size_t i : read_at) requests.push_back(group[i].read);
    auto result = agent_->ReadGroup(requests);
    if (result.ok()) {
      std::vector<Bytes>& payloads = *result;
      for (size_t r = 0; r < read_at.size(); ++r) {
        group[read_at[r]].read_promise.set_value(std::move(payloads[r]));
      }
    } else {
      for (size_t r = 0; r < read_at.size(); ++r) {
        auto single = agent_->ReadGroup(
            std::span<const ObliviousAgent::ReadRequest>(&requests[r], 1));
        group[read_at[r]].read_promise.set_value(
            single.ok() ? Result<Bytes>(std::move(single->front()))
                        : Result<Bytes>(single.status()));
      }
    }
  }

  // Record the aggregation counters and per-request latency stamps —
  // all atomic cells, so a concurrent stats() poll never tears.
  const double complete = Clock();
  span.AddArg("reads", static_cast<int64_t>(read_at.size()));
  span.AddArg("writes", static_cast<int64_t>(write_at.size()));
  cells_.requests.Add(group.size());
  cells_.read_requests.Add(read_at.size());
  cells_.write_requests.Add(write_at.size());
  if (!read_at.empty()) {
    cells_.groups.Increment();
    cells_.read_groups.Increment();
    cells_.fill.Record(static_cast<double>(read_at.size()));
    if (read_at.size() > 1) cells_.grouped_requests.Add(read_at.size());
  }
  if (!write_at.empty()) {
    cells_.groups.Increment();
    cells_.write_groups.Increment();
    cells_.fill.Record(static_cast<double>(write_at.size()));
    if (write_at.size() > 1) cells_.grouped_requests.Add(write_at.size());
  }
  for (const Pending& pending : group) {
    cells_.latency_ms.Record(complete - pending.arrive_clock);
    if (options_.trace != nullptr) {
      options_.trace->AsyncEnd("dispatch.request", pending.seq,
                               trace_track_);
    }
  }
}

DispatcherStats RequestDispatcher::stats() const {
  DispatcherStats out;
  out.requests = cells_.requests.value();
  out.read_requests = cells_.read_requests.value();
  out.write_requests = cells_.write_requests.value();
  out.groups = cells_.groups.value();
  out.read_groups = cells_.read_groups.value();
  out.write_groups = cells_.write_groups.value();
  out.max_fill = static_cast<uint64_t>(cells_.fill.max());
  out.grouped_requests = cells_.grouped_requests.value();
  out.maintenance_pumps = cells_.maintenance_pumps.value();
  out.maintenance_pump_errors = cells_.maintenance_pump_errors.value();
  out.maintenance_pump_retries = cells_.maintenance_pump_retries.value();
  out.maintenance_escalations = cells_.maintenance_escalations.value();
  if (cells_.latency_ms.count() > 0) {
    out.p50_latency_ms = cells_.latency_ms.Percentile(50);
    out.p90_latency_ms = cells_.latency_ms.Percentile(90);
    out.p99_latency_ms = cells_.latency_ms.Percentile(99);
  }
  return out;
}

}  // namespace steghide::agent
