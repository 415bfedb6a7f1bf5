#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "agent/dispatch/request_dispatcher.h"
#include "reference.h"
#include "system.h"

namespace perfbench {

/// One serving phase driven from the calling thread.
struct LoadSpec {
  double write_frac = 0.0;
  /// Closed loop: keep `sessions` requests in flight through as many open
  /// dispatcher sessions. Open loop: Poisson arrivals at `rate_per_s`,
  /// submitted sessionless.
  bool open_loop = false;
  size_t sessions = 32;
  double rate_per_s = 0.0;
  /// Issuing stops after `seconds` of wall time (0 = no time limit) or,
  /// in a closed loop with a non-zero `max_requests`, after that many
  /// requests, whichever comes first.
  double seconds = 0.0;
  uint64_t max_requests = 0;
};

struct LoadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Serving window on the WallMs() axis: first submission to last
  /// completion.
  double t0_ms = 0.0;
  double t1_ms = 0.0;
  /// Latencies of successful requests (closed loop: from submission; open
  /// loop: from the due time) and, open loop only, how late each
  /// submission went out.
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<double> late_us;
  /// Completion time (WallMs) of each entry of read_us / write_us.
  std::vector<double> read_done_ms;
  std::vector<double> write_done_ms;
  /// (WallMs, SystemCpuSeconds) at the start and after every
  /// kWindowRequests (open loop: kOpenWindowRequests) completions;
  /// consecutive marks bound the windows the end-to-end figures pool.
  std::vector<std::pair<double, double>> marks;
  /// Open loop: requests still outstanding when arrivals stopped that had
  /// been due for more than kBacklogAgeMs (zero unless a queue builds up).
  uint64_t backlog_end = 0;
  /// Draws whose block was still in flight, so the generator waited.
  uint64_t conflict_waits = 0;
  /// A deliberately corrupted copy of the first good read was rejected by
  /// the reference check.
  bool checker_live = false;
  std::string first_error;

  double wall_ms() const { return t1_ms - t0_ms; }
};

inline constexpr double kBacklogAgeMs = 100.0;
/// Requests per measurement window: one full re-order cycle of the bottom
/// level (a store capacity of staged records), so every window carries
/// the same re-order work and windows differ only by host noise.
inline constexpr uint64_t kWindowRequests = 16384;
/// The open loop serves about a thousand requests a second, so its
/// windows are a quarter cycle: enough of them per run to leave out the
/// disturbed ones. Deamortized re-orders spread the bottom level's work evenly over
/// its cycle, so quarter cycles still carry equal work.
inline constexpr uint64_t kOpenWindowRequests = kWindowRequests / 4;

/// CPU time (user + system) in seconds of the calling thread, and of every
/// other thread of the process. The generator runs on the calling thread,
/// so the second is the system's own CPU: dispatcher, shard and server
/// threads, without the pattern fills and reference checks.
double ThreadCpuSeconds();
double SystemCpuSeconds();

/// Drives `dispatcher` from the calling thread with requests drawn from
/// `stream` (and `arrivals`, open loop), checking every read against
/// `reference` and acknowledging every successful write into it. Never
/// has two requests on one block in flight.
LoadResult RunLoad(System& system,
                   steghide::agent::RequestDispatcher& dispatcher,
                   ReferenceModel& reference, RequestStream& stream,
                   ArrivalStream* arrivals, const LoadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
