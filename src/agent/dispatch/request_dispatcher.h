#ifndef STEGHIDE_AGENT_DISPATCH_REQUEST_DISPATCHER_H_
#define STEGHIDE_AGENT_DISPATCH_REQUEST_DISPATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "agent/oblivious_agent.h"
#include "obs/metrics.h"
#include "obs/snapshotter.h"
#include "obs/trace_log.h"

namespace steghide::agent {

struct DispatcherOptions {
  /// Largest committed group. With sessions open, a commit is issued as
  /// soon as min(max_batch, open sessions) requests are pending, or when
  /// the commit window expires. With none open, the I/O thread commits
  /// whatever is queued, up to max_batch, as soon as it is free.
  /// Matching the oblivious store's buffer_blocks B makes one committed
  /// group cost one level-scan pass.
  size_t max_batch = 16;
  /// Upper bound on how long the dispatcher lingers after the first
  /// pending request, waiting for a session-counted group to fill.
  /// Sessionless requests never wait for it. Wall-clock: it bounds
  /// *scheduling* latency of co-arriving threads, not the virtual disk
  /// time the experiments measure.
  std::chrono::microseconds commit_window{500};
  /// Virtual-clock sampler (e.g. SimBlockDevice::clock_ms) used to stamp
  /// request arrival/completion for the latency percentiles. May be
  /// empty; latencies then read 0.
  std::function<double()> clock_fn;
  /// Maintenance pump budget (device blocks per slice): the I/O thread
  /// drives the oblivious store's pending deamortized re-order work —
  /// ObliviousAgent::PumpReorder — during commit-window idle gaps,
  /// while the queue is empty, and right after each committed group, so
  /// rebuild I/O rides the gaps instead of stalling a serving request.
  /// 0 disables the pump (the store still self-paces via serving taxes).
  uint64_t maintenance_budget = 64;
  /// Extra idle-gap maintenance (e.g. VolumeSet::PumpRepair driving a
  /// replica rebuild). Called from the I/O thread — the single storage
  /// issuer — with the maintenance budget, only when the re-order chain
  /// has no work, returning whether more remains. May be empty.
  std::function<Result<bool>(uint64_t budget)> extra_maintenance;
  /// Observability sinks, all optional (null = zero-cost). The registry
  /// gets the dispatcher's counters/histograms under "dispatcher"; the
  /// trace log gets commit/maintenance spans on a dispatcher track plus
  /// one async interval per request (id = submission sequence number);
  /// the snapshotter — if given — is pumped from the worker loop after
  /// each commit so periodic counter samples ride the serving cadence.
  obs::Registry* registry = nullptr;
  obs::TraceLog* trace = nullptr;
  obs::StatsSnapshotter* snapshotter = nullptr;
};

/// Counters describing the dispatcher's aggregation behaviour. The
/// latency percentiles are in virtual milliseconds (queueing + service
/// on the virtual disk clock).
struct DispatcherStats {
  uint64_t requests = 0;
  uint64_t read_requests = 0;
  uint64_t write_requests = 0;
  /// Group commits issued; a cycle serving both reads and writes counts
  /// one group per kind.
  uint64_t groups = 0;
  uint64_t read_groups = 0;
  uint64_t write_groups = 0;
  /// Largest single committed group.
  uint64_t max_fill = 0;
  /// Requests that shared their group with at least one other request.
  uint64_t grouped_requests = 0;
  /// Idle-gap maintenance slices that advanced re-order work.
  uint64_t maintenance_pumps = 0;
  /// Maintenance slices that failed with an I/O error (the chain stays
  /// pending; the error also surfaces through the serving path).
  uint64_t maintenance_pump_errors = 0;
  /// Failed slices re-attempted after a bounded backoff (500 us,
  /// doubling per consecutive failure, capped at 50 ms). Retrying never
  /// stops: a pending chain is never abandoned to an unbounded condvar
  /// wait, which is how a transient fault used to wedge the worker (see
  /// WorkerLoop).
  uint64_t maintenance_pump_retries = 0;
  /// Failure streaks that reached 8 consecutive failed slices — the "a
  /// spindle is not coming back" alarm.
  uint64_t maintenance_escalations = 0;

  double p50_latency_ms = 0.0;
  double p90_latency_ms = 0.0;
  double p99_latency_ms = 0.0;

  double MeanFill() const {
    return groups == 0 ? 0.0
                       : static_cast<double>(requests) /
                             static_cast<double>(groups);
  }
};

/// Multi-threaded request dispatcher — the layer that turns the batched
/// oblivious entry points into a *servable* system. Real std::thread
/// users submit reads/writes through session handles; the dispatcher's
/// single I/O thread group-commits up to max_batch outstanding requests
/// into one ObliviousAgent::ReadGroup / WriteGroup (one cross-file
/// level-scan group per store-buffer chunk) and completes each caller
/// through a future.
///
/// Concurrency architecture:
///
///   user threads ──Submit──▶ queue (mutex + condvar)
///                              │ group commit (≤ B)
///                              ▼
///                    dispatcher I/O thread            ← the ONLY thread
///                              │                        issuing storage
///                              ▼                        I/O
///            ObliviousAgent::ReadGroup / WriteGroup
///
/// Group fill. Sessions announce users: with s sessions open, a group
/// commits once min(max_batch, s) requests are pending, and
/// commit_window bounds the wait for the rest. With no session open
/// nobody is announced, so nothing is waited for: the I/O thread
/// commits whatever is queued as soon as it is free, and requests that
/// arrive while it serves a group form the next one. Such groups still
/// fill whenever the queue backs up.
///
/// Because all storage I/O funnels through the one dispatcher thread,
/// every device below keeps seeing single-issuer call sequences
/// (block_device.h), and the attacker-visible trace of a committed group
/// of k equals k sequential requests (one touch per non-empty level per
/// request) regardless of thread arrival order.
///
/// Within one commit cycle writes are issued before reads, so a caller
/// that awaited its write before submitting a dependent read always
/// observes its own data. Two *concurrent* requests to the same block
/// race exactly as they would against a POSIX file.
class RequestDispatcher {
 public:
  using FileId = ObliviousAgent::FileId;

  /// `agent` is borrowed and must outlive the dispatcher. The I/O thread
  /// starts immediately.
  explicit RequestDispatcher(ObliviousAgent* agent,
                             DispatcherOptions options = {});
  ~RequestDispatcher();

  RequestDispatcher(const RequestDispatcher&) = delete;
  RequestDispatcher& operator=(const RequestDispatcher&) = delete;

  /// Worker-facing session handle. Opening a session tells the group
  /// commit how many users may have a request in flight: the I/O thread
  /// waits, up to commit_window, until every open session has one
  /// pending, so closed-loop users share full groups. Close (destroy)
  /// the session when the user thread is done.
  class Session {
   public:
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Blocking oblivious read of [offset, offset+n) of `file`.
    Result<Bytes> Read(FileId file, uint64_t offset, size_t n);
    /// Blocking hidden write.
    Status Write(FileId file, uint64_t offset, Bytes data);

    std::future<Result<Bytes>> AsyncRead(FileId file, uint64_t offset,
                                         size_t n);
    std::future<Status> AsyncWrite(FileId file, uint64_t offset, Bytes data);

   private:
    friend class RequestDispatcher;
    explicit Session(RequestDispatcher* dispatcher)
        : dispatcher_(dispatcher) {}
    RequestDispatcher* dispatcher_;
  };

  std::unique_ptr<Session> OpenSession();

  /// Sessionless submission (the Session methods forward here).
  std::future<Result<Bytes>> SubmitRead(FileId file, uint64_t offset,
                                        size_t n);
  std::future<Status> SubmitWrite(FileId file, uint64_t offset, Bytes data);

  /// Drains every pending request, then joins the I/O thread. Further
  /// submissions fail with FailedPrecondition. Idempotent; the
  /// destructor calls it.
  void Stop();

  /// Snapshot of the aggregation counters. Lock-free: assembled from
  /// relaxed loads of the I/O thread's cells, so a stats() poll
  /// concurrent with the worker never sees a torn value. Percentiles
  /// come from a log-linear latency histogram (<= ~0.8% relative bucket
  /// error).
  DispatcherStats stats() const;

  ObliviousAgent& agent() { return *agent_; }

 private:
  // Each kind carries only its own promise: a std::promise allocates
  // its shared state and its result when constructed, used or not.
  struct PendingRead {
    ObliviousAgent::ReadRequest request;
    std::promise<Result<Bytes>> promise;
  };
  struct PendingWrite {
    ObliviousAgent::WriteRequest request;
    std::promise<Status> promise;
  };
  struct Pending {
    std::variant<PendingRead, PendingWrite> op;
    double arrive_clock = 0.0;
    /// Submission sequence number; the id of the request's async trace
    /// interval (dispatch.request begin at submit, end at completion).
    uint64_t seq = 0;
  };

  /// Queues one request and returns its caller's future.
  template <typename Op>
  auto Enqueue(Op op);
  void WorkerLoop();
  /// Serves group_ and leaves it empty.
  void CommitGroup();
  /// What a maintenance slice did: advanced work that remains (kMore),
  /// found nothing left to do (kIdle), or failed and left its chain
  /// pending (kFailed — the worker must keep polling, never block
  /// indefinitely, or the chain wedges).
  enum class PumpResult : uint8_t { kIdle, kMore, kFailed };
  /// One maintenance slice (caller must NOT hold mu_): re-order chain
  /// first, then options_.extra_maintenance once the chain is idle.
  PumpResult PumpMaintenance();
  double Clock() const {
    return options_.clock_fn ? options_.clock_fn() : 0.0;
  }
  /// Pending count that triggers an immediate commit (callers hold mu_).
  size_t FillTargetLocked() const;
  void CloseSession();

  ObliviousAgent* agent_;
  DispatcherOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Pending requests in arrival order.
  std::vector<Pending> queue_;
  size_t open_sessions_ = 0;
  bool stopping_ = false;
  std::once_flag join_once_;

  // Instrument cells (obs/metrics.h), written only by the I/O thread:
  // stats() loads them without a lock, and — when a registry is wired —
  // the same cells export under "dispatcher.*". The latency histogram
  // replaces the old bounded reservoir: O(1) memory, no stats mutex on
  // the hot path, and p90 for free.
  struct Cells {
    obs::CounterCell requests;
    obs::CounterCell read_requests;
    obs::CounterCell write_requests;
    obs::CounterCell groups;
    obs::CounterCell read_groups;
    obs::CounterCell write_groups;
    obs::CounterCell grouped_requests;
    obs::CounterCell maintenance_pumps;
    obs::CounterCell maintenance_pump_errors;
    obs::CounterCell maintenance_pump_retries;
    obs::CounterCell maintenance_escalations;
    /// Per-request virtual latency (queueing + service), ms.
    obs::HistogramCell latency_ms;
    /// Committed group sizes (per kind); max() is the old max_fill.
    obs::HistogramCell fill;
    /// Queue depth sampled at each commit take.
    obs::GaugeCell queue_depth;
  };
  static constexpr obs::StatRow<Cells, DispatcherStats> kStatRows[] = {
      {"requests", &Cells::requests, &DispatcherStats::requests},
      {"read_requests", &Cells::read_requests,
       &DispatcherStats::read_requests},
      {"write_requests", &Cells::write_requests,
       &DispatcherStats::write_requests},
      {"groups", &Cells::groups, &DispatcherStats::groups},
      {"read_groups", &Cells::read_groups, &DispatcherStats::read_groups},
      {"write_groups", &Cells::write_groups, &DispatcherStats::write_groups},
      {"grouped_requests", &Cells::grouped_requests,
       &DispatcherStats::grouped_requests},
      {"maintenance_pumps", &Cells::maintenance_pumps,
       &DispatcherStats::maintenance_pumps},
      {"maintenance_pump_errors", &Cells::maintenance_pump_errors,
       &DispatcherStats::maintenance_pump_errors},
      {"maintenance_pump_retries", &Cells::maintenance_pump_retries,
       &DispatcherStats::maintenance_pump_retries},
      {"maintenance_escalations", &Cells::maintenance_escalations,
       &DispatcherStats::maintenance_escalations},
  };
  Cells cells_;
  obs::Registration registration_;
  uint64_t next_seq_ = 0;  // guarded by mu_
  uint32_t trace_track_ = 0;

  // Commit scratch, touched only by the I/O thread and kept across
  // commits, so a steady-state commit allocates nothing of its own.
  std::vector<Pending> group_;
  std::vector<PendingWrite*> valid_writes_;
  std::vector<ObliviousAgent::ReadRequest> read_requests_;
  std::vector<ObliviousAgent::WriteRequest> write_requests_;

  std::thread worker_;
};

}  // namespace steghide::agent

#endif  // STEGHIDE_AGENT_DISPATCH_REQUEST_DISPATCHER_H_
