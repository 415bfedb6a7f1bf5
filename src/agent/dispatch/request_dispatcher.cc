#include "agent/dispatch/request_dispatcher.h"

#include <algorithm>
#include <iterator>
#include <type_traits>

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
    obs::RegisterRows(kStatRows, cells_, p, &registration_);
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

template <typename Op>
auto RequestDispatcher::Enqueue(Op op) {
  auto future = op.promise.get_future();
  const double arrive_clock = Clock();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      op.promise.set_value(Status::FailedPrecondition("dispatcher stopped"));
      return future;
    }
    const uint64_t seq = next_seq_++;
    if (options_.trace != nullptr) {
      const int64_t write = std::is_same_v<Op, PendingWrite> ? 1 : 0;
      options_.trace->AsyncBegin("dispatch.request", seq, trace_track_,
                                 {{"write", write}});
    }
    queue_.push_back(Pending{std::move(op), arrive_clock, seq});
  }
  cv_.notify_all();
  return future;
}

std::future<Result<Bytes>> RequestDispatcher::SubmitRead(FileId file,
                                                         uint64_t offset,
                                                         size_t n) {
  return Enqueue(PendingRead{{file, offset, n}, {}});
}

std::future<Status> RequestDispatcher::SubmitWrite(FileId file,
                                                   uint64_t offset,
                                                   Bytes data) {
  return Enqueue(PendingWrite{{file, offset, std::move(data)}, {}});
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
  // once every open session has submitted there is nothing to wait for;
  // the commit window bounds the wait for the others. With no session
  // open — direct submits, or async requests whose sessions have all
  // closed — no request is announced, so the target is 1: the worker
  // commits whatever is queued as soon as it is free, and waiting the
  // window out would only stall the queued requests.
  return std::clamp(open_sessions_, size_t{1}, options_.max_batch);
}

RequestDispatcher::PumpResult RequestDispatcher::PumpMaintenance() {
  if (options_.maintenance_budget == 0) return PumpResult::kIdle;
  oblivious::ObliviousStore& store = agent_->store();
  if (store.reorder_pending()) {
    obs::ScopedSpan span(options_.trace, "dispatch.pump", trace_track_);
    bool more = false;
    if (!store.StepReorder(options_.maintenance_budget, &more).ok()) {
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
    if (more) return PumpResult::kMore;
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

    // Group commit: linger (bounded) for a session-counted group to
    // fill; with no session open the target is 1 and nothing lingers.
    // Submissions and session closes signal cv_, so the loop re-evaluates
    // the fill target as the population changes; stopping flushes
    // immediately.
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

    cells_.queue_depth.Set(static_cast<double>(queue_.size()));
    const auto taken =
        queue_.begin() + std::min(queue_.size(), options_.max_batch);
    group_.assign(std::make_move_iterator(queue_.begin()),
                  std::make_move_iterator(taken));
    queue_.erase(queue_.begin(), taken);

    lock.unlock();
    CommitGroup();
    // Post-commit gap: callers are busy digesting their futures; slip
    // one re-order slice in before looking for the next group.
    PumpMaintenance();
    if (options_.snapshotter != nullptr) options_.snapshotter->MaybeSample();
    lock.lock();
  }
}

void RequestDispatcher::CommitGroup() {
  obs::ScopedSpan span(options_.trace, "dispatch.commit", trace_track_,
                       {{"n", static_cast<int64_t>(group_.size())}});
  // Each kind is served by one pass over group_, in arrival order.
  //
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
  valid_writes_.clear();
  for (Pending& pending : group_) {
    auto* write = std::get_if<PendingWrite>(&pending.op);
    if (write == nullptr) continue;
    const auto size = agent_->FileSize(write->request.file);
    if (!size.ok()) {
      write->promise.set_value(size.status());
      continue;
    }
    valid_writes_.push_back(write);
    write_requests_.push_back(std::move(write->request));
  }
  if (!valid_writes_.empty()) {
    const Status status = agent_->WriteGroup(write_requests_);
    write_requests_.clear();  // frees the payloads, keeps the storage
    for (PendingWrite* write : valid_writes_) {
      write->promise.set_value(status);
    }
  }

  // Reads have no side effects on the StegFS partition, so a failed
  // group (e.g. one stale handle) simply retries each member
  // individually — per-request semantics on the error path, batched on
  // the common one.
  read_requests_.clear();
  for (const Pending& pending : group_) {
    if (const auto* read = std::get_if<PendingRead>(&pending.op)) {
      read_requests_.push_back(read->request);
    }
  }
  const size_t reads = read_requests_.size();
  if (reads > 0) {
    auto result = agent_->ReadGroup(read_requests_);
    size_t r = 0;
    for (Pending& pending : group_) {
      auto* read = std::get_if<PendingRead>(&pending.op);
      if (read == nullptr) continue;
      if (result.ok()) {
        read->promise.set_value(std::move((*result)[r]));
      } else {
        auto single = agent_->ReadGroup(
            std::span<const ObliviousAgent::ReadRequest>(&read_requests_[r],
                                                         1));
        read->promise.set_value(
            single.ok() ? Result<Bytes>(std::move(single->front()))
                        : Result<Bytes>(single.status()));
      }
      ++r;
    }
  }

  // Record the aggregation counters and per-request latency stamps —
  // all atomic cells, so a concurrent stats() poll never tears.
  const double complete = Clock();
  const size_t writes = group_.size() - reads;
  span.AddArg("reads", static_cast<int64_t>(reads));
  span.AddArg("writes", static_cast<int64_t>(writes));
  cells_.requests.Add(group_.size());
  cells_.read_requests.Add(reads);
  cells_.write_requests.Add(writes);
  if (reads > 0) {
    cells_.groups.Increment();
    cells_.read_groups.Increment();
    cells_.fill.Record(static_cast<double>(reads));
    if (reads > 1) cells_.grouped_requests.Add(reads);
  }
  if (writes > 0) {
    cells_.groups.Increment();
    cells_.write_groups.Increment();
    cells_.fill.Record(static_cast<double>(writes));
    if (writes > 1) cells_.grouped_requests.Add(writes);
  }
  for (const Pending& pending : group_) {
    cells_.latency_ms.Record(complete - pending.arrive_clock);
    if (options_.trace != nullptr) {
      options_.trace->AsyncEnd("dispatch.request", pending.seq,
                               trace_track_);
    }
  }
  group_.clear();
}

DispatcherStats RequestDispatcher::stats() const {
  DispatcherStats out = obs::ReadRows(kStatRows, cells_);
  out.max_fill = static_cast<uint64_t>(cells_.fill.max());
  if (cells_.latency_ms.count() > 0) {
    out.p50_latency_ms = cells_.latency_ms.Percentile(50);
    out.p90_latency_ms = cells_.latency_ms.Percentile(90);
    out.p99_latency_ms = cells_.latency_ms.Percentile(99);
  }
  return out;
}

}  // namespace steghide::agent
