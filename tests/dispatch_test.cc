// Suite for the multi-threaded request dispatcher: group commit over the
// cross-file batch entry points, trace equivalence of a dispatched group
// against sequential requests (the attacker cannot tell k concurrent
// users from k serial ones), and data integrity under real-thread stress
// with randomized arrival jitter. The stress tests are the ones the
// sanitize/tsan presets are aimed at.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "agent/dispatch/request_dispatcher.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "storage/mem_block_device.h"
#include "storage/trace_device.h"
#include "util/random.h"
#include "workload/concurrency.h"

namespace steghide::agent {
namespace {

using oblivious::ObliviousStoreOptions;
using storage::IoTrace;
using storage::TraceEvent;

ObliviousStoreOptions StoreOptions() {
  ObliviousStoreOptions opts;
  opts.buffer_blocks = 8;
  opts.capacity_blocks = 128;  // levels 16, 32, 64, 128
  opts.partition_base = 0;
  opts.scratch_base = 2 * 128 - 2 * 8;
  opts.drbg_seed = 41;
  return opts;
}

ObliviousStoreOptions DeamortStoreOptions() {
  // The deamortized twin of StoreOptions(): shadow mirror after scratch,
  // taxes paced at the floor so chains linger into dispatcher idle gaps.
  ObliviousStoreOptions opts = StoreOptions();
  opts.deamortize_reorders = true;
  opts.shadow_base = opts.scratch_base + opts.capacity_blocks;  // 240 + 128
  opts.reorder_step_blocks = 1;
  return opts;
}

/// One fully wired ObliviousAgent system with a traced cache device.
/// Two instances built with the same seed are bit-for-bit identical
/// until their request streams diverge.
struct System {
  explicit System(uint64_t seed,
                  ObliviousStoreOptions store_options = StoreOptions())
      : steg_mem(4096, 4096),
        cache_mem(768, 4096),
        cache_traced(&cache_mem),
        core(&steg_mem, stegfs::StegFsOptions{seed, true}) {
    EXPECT_TRUE(core.Format().ok());
    auto created =
        ObliviousAgent::Create(&core, &cache_traced, store_options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    agent = std::move(created).value();
    EXPECT_TRUE(agent->CreateDummyFile("u", 600).ok());
  }

  /// Creates `count` hidden files of `blocks` payload blocks each, with
  /// per-file deterministic content, and pre-warms the oblivious cache by
  /// reading every file once (so later reads are level scans, not
  /// miss-fills).
  std::vector<ObliviousAgent::FileId> Populate(size_t count, size_t blocks,
                                               bool prewarm = true) {
    std::vector<ObliviousAgent::FileId> ids;
    const size_t payload = core.payload_size();
    for (size_t f = 0; f < count; ++f) {
      auto id = agent->CreateHiddenFile("u");
      EXPECT_TRUE(id.ok());
      Bytes data(blocks * payload);
      for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(f * 37 + i / payload);
      }
      EXPECT_TRUE(agent->Write(*id, 0, data).ok());
      ids.push_back(*id);
    }
    if (prewarm) {
      for (size_t f = 0; f < count; ++f) {
        EXPECT_TRUE(agent->Read(ids[f], 0, blocks * payload).ok());
      }
    }
    return ids;
  }

  Bytes ExpectedBlock(size_t file_index, size_t block) {
    return Bytes(core.payload_size(),
                 static_cast<uint8_t>(file_index * 37 + block));
  }

  storage::MemBlockDevice steg_mem;
  storage::MemBlockDevice cache_mem;
  storage::TraceBlockDevice cache_traced;
  stegfs::StegFsCore core;
  std::unique_ptr<ObliviousAgent> agent;
};

/// Touches per level of the oblivious hierarchy in a cache-device trace.
std::vector<uint64_t> LevelTouchCounts(const IoTrace& trace) {
  const ObliviousStoreOptions opts = StoreOptions();
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  uint64_t base = opts.partition_base;
  for (uint64_t cap = 2 * opts.buffer_blocks; cap <= opts.capacity_blocks;
       cap *= 2) {
    ranges.emplace_back(base, base + cap);
    base += cap;
  }
  std::vector<uint64_t> counts(ranges.size(), 0);
  for (const TraceEvent& ev : trace) {
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (ev.block_id >= ranges[i].first && ev.block_id < ranges[i].second) {
        ++counts[i];
        break;
      }
    }
  }
  return counts;
}

// ---- basic serving -------------------------------------------------------

TEST(RequestDispatcherTest, SingleUserRoundTrip) {
  System sys(101);
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(1, 4);

  RequestDispatcher dispatcher(sys.agent.get());
  auto session = dispatcher.OpenSession();
  auto back = session->Read(ids[0], 0, 4 * payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(Bytes(back->begin() + b * payload,
                    back->begin() + (b + 1) * payload),
              sys.ExpectedBlock(0, b));
  }

  ASSERT_TRUE(session->Write(ids[0], payload, Bytes(payload, 0x5a)).ok());
  auto again = session->Read(ids[0], payload, payload);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, Bytes(payload, 0x5a));

  session.reset();
  dispatcher.Stop();
  const DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.read_requests, 2u);
  EXPECT_EQ(stats.write_requests, 1u);
}

TEST(RequestDispatcherTest, StopDrainsAndRejectsLateSubmissions) {
  System sys(102);
  const auto ids = sys.Populate(1, 2);
  const size_t payload = sys.core.payload_size();

  RequestDispatcher dispatcher(sys.agent.get());
  auto pending = dispatcher.SubmitRead(ids[0], 0, payload);
  dispatcher.Stop();
  auto drained = pending.get();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(*drained, sys.ExpectedBlock(0, 0));

  auto late = dispatcher.SubmitRead(ids[0], 0, payload).get();
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RequestDispatcherTest, SessionlessRequestDoesNotWaitOutTheWindow) {
  // With no session open, nothing announces a request to come, so an
  // idle dispatcher commits a lone sessionless request at once instead
  // of lingering for a window sized far beyond the test timeout.
  System sys(104);
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(1, 2);

  DispatcherOptions options;
  options.max_batch = 8;
  options.commit_window = std::chrono::seconds(30);
  RequestDispatcher dispatcher(sys.agent.get(), options);
  // Let the worker go idle on its condvar first.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto read = dispatcher.SubmitRead(ids[0], 0, payload);
  ASSERT_EQ(read.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "a lone sessionless request waited out the commit window";
  auto data = read.get();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, sys.ExpectedBlock(0, 0));
  dispatcher.Stop();
  EXPECT_EQ(dispatcher.stats().read_groups, 1u);
}

/// Sessionless reads queued while the I/O thread is busy: the parameter
/// is how many, against a max_batch of 8.
class SessionlessBacklogTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SessionlessBacklogTest, QueuedWhileBusyCommitInFullGroups) {
  // Sessionless requests that arrive while the I/O thread is busy form
  // its next group. The worker is held inside an idle-gap maintenance
  // slice while k reads queue up; once released it commits them in
  // arrival order, max_batch at a time, without lingering for a 30 s
  // window.
  System sys(105);
  const size_t kMaxBatch = 8;
  const size_t kReads = GetParam();
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(kReads, 2);

  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool released = false;
  DispatcherOptions options;
  options.max_batch = kMaxBatch;
  options.commit_window = std::chrono::seconds(30);
  options.extra_maintenance = [&](uint64_t) -> Result<bool> {
    std::unique_lock<std::mutex> lock(mu);
    held = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
    return false;
  };
  RequestDispatcher dispatcher(sys.agent.get(), options);
  bool worker_held = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    worker_held = cv.wait_for(lock, std::chrono::seconds(10),
                              [&] { return held; });
  }

  std::vector<std::future<Result<Bytes>>> reads;
  for (size_t r = 0; r < kReads; ++r) {
    reads.push_back(dispatcher.SubmitRead(ids[r], 0, payload));
  }
  const auto start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  // Asserted only after the release: a worker held forever would keep
  // Stop() from joining it.
  ASSERT_TRUE(worker_held) << "the worker never ran its idle-gap maintenance";

  for (size_t r = 0; r < kReads; ++r) {
    ASSERT_EQ(reads[r].wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "queued sessionless requests waited out the commit window";
    auto data = reads[r].get();
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(*data, sys.ExpectedBlock(r, 0)) << "read " << r;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  dispatcher.Stop();
  const DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.read_requests, kReads);
  EXPECT_EQ(stats.read_groups, (kReads + kMaxBatch - 1) / kMaxBatch);
  EXPECT_EQ(stats.max_fill, std::min(kReads, kMaxBatch));
}

// 5 fit one group; 11 take a full group of 8 and leave 3 for the next.
INSTANTIATE_TEST_SUITE_P(Queued, SessionlessBacklogTest,
                         ::testing::Values(size_t{5}, size_t{11}));

// ---- group commit --------------------------------------------------------

TEST(RequestDispatcherTest, GroupCommitAggregatesConcurrentUsers) {
  System sys(103);
  const size_t kUsers = 6;
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(kUsers, 4);

  const auto before = sys.agent->store().stats();

  DispatcherOptions options;
  options.max_batch = 8;
  options.commit_window = std::chrono::milliseconds(500);
  RequestDispatcher dispatcher(sys.agent.get(), options);

  std::vector<std::unique_ptr<RequestDispatcher::Session>> sessions;
  for (size_t u = 0; u < kUsers; ++u) sessions.push_back(dispatcher.OpenSession());

  std::vector<std::function<Status()>> users;
  for (size_t u = 0; u < kUsers; ++u) {
    users.push_back([&, u]() -> Status {
      for (uint64_t block = 0; block < 4; ++block) {
        STEGHIDE_ASSIGN_OR_RETURN(
            const Bytes data,
            sessions[u]->Read(ids[u], block * payload, payload));
        if (data != sys.ExpectedBlock(u, block)) {
          return Status::Internal("content mismatch");
        }
      }
      return Status::OK();
    });
  }
  for (const Status& status : workload::RunOnThreads(std::move(users))) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  sessions.clear();
  dispatcher.Stop();

  const DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.requests, kUsers * 4);
  // Aggregation happened: fewer groups than requests, and at least one
  // group carried multiple users.
  EXPECT_LT(stats.read_groups, stats.requests);
  EXPECT_GT(stats.max_fill, 1u);
  EXPECT_GT(stats.MeanFill(), 1.0);

  // The store served the 24 level-scan requests in fewer passes than the
  // per-request path (one pass each) would have.
  const auto after = sys.agent->store().stats();
  const uint64_t scans = after.scan_passes - before.scan_passes;
  EXPECT_LT(scans, stats.requests);
}

// ---- trace equivalence ---------------------------------------------------

/// Runs k one-block reads (one per file) through a dispatcher configured
/// to commit them as one group, with per-thread arrival jitter drawn
/// from `jitter_seed`. Returns the cache-device trace of the group.
IoTrace DispatchedGroupTrace(System& sys,
                             const std::vector<ObliviousAgent::FileId>& ids,
                             uint64_t jitter_seed) {
  const size_t payload = sys.core.payload_size();
  sys.cache_traced.ClearTrace();

  DispatcherOptions options;
  options.max_batch = ids.size();
  options.commit_window = std::chrono::milliseconds(2000);
  RequestDispatcher dispatcher(sys.agent.get(), options);
  std::vector<std::unique_ptr<RequestDispatcher::Session>> sessions;
  for (size_t u = 0; u < ids.size(); ++u) {
    sessions.push_back(dispatcher.OpenSession());
  }

  Rng jitter(jitter_seed);
  std::vector<std::function<Status()>> users;
  for (size_t u = 0; u < ids.size(); ++u) {
    const uint64_t delay_us = jitter.Uniform(3000);
    users.push_back([&, u, delay_us]() -> Status {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      STEGHIDE_ASSIGN_OR_RETURN(const Bytes data,
                                sessions[u]->Read(ids[u], 0, payload));
      return data == sys.ExpectedBlock(u, 0)
                 ? Status::OK()
                 : Status::Internal("content mismatch");
    });
  }
  for (const Status& status : workload::RunOnThreads(std::move(users))) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  sessions.clear();
  dispatcher.Stop();

  // All k arrived within the window, so they committed as one group.
  EXPECT_EQ(dispatcher.stats().read_groups, 1u);
  EXPECT_EQ(dispatcher.stats().max_fill, ids.size());
  return sys.cache_traced.trace();
}

TEST(DispatchTraceEquivalenceTest, DispatchedGroupMatchesSequentialRequests) {
  // Twin systems: identical seeds, identical population and pre-warm
  // (24 records, an exact multiple of B = 8, so both start the measured
  // window with an empty agent buffer and identical level contents).
  const size_t kUsers = 6;
  System seq(777), dispatched(777);
  const auto seq_ids = seq.Populate(kUsers, 4);
  const auto dis_ids = dispatched.Populate(kUsers, 4);
  ASSERT_EQ(seq.agent->store().buffer_fill(), 0u);
  ASSERT_EQ(dispatched.agent->store().buffer_fill(), 0u);

  // Sequential reference: one read per user, one scan pass each.
  const size_t payload = seq.core.payload_size();
  seq.cache_traced.ClearTrace();
  for (size_t u = 0; u < kUsers; ++u) {
    auto data = seq.agent->Read(seq_ids[u], 0, payload);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, seq.ExpectedBlock(u, 0));
  }
  const IoTrace seq_trace = seq.cache_traced.trace();

  // Dispatched group: same k requests from real threads, one commit.
  const IoTrace group_trace = DispatchedGroupTrace(dispatched, dis_ids, 5);

  // The attacker-visible per-level touch multiset of the dispatched
  // group equals k sequential requests: same touch count per level, same
  // total event count, reads only.
  EXPECT_EQ(LevelTouchCounts(seq_trace), LevelTouchCounts(group_trace));
  EXPECT_EQ(seq_trace.size(), group_trace.size());
  uint64_t total = 0;
  for (const uint64_t count : LevelTouchCounts(group_trace)) total += count;
  EXPECT_GT(total, 0u);
  for (const TraceEvent& ev : group_trace) {
    EXPECT_EQ(ev.kind, TraceEvent::Kind::kRead);
  }
}

TEST(DispatchTraceEquivalenceTest, ArrivalOrderDoesNotChangeTheTouchCounts) {
  // Same group under two different thread-arrival jitters: the per-level
  // touch counts are identical regardless of arrival order.
  const size_t kUsers = 6;
  System a(778), b(778);
  const auto a_ids = a.Populate(kUsers, 4);
  const auto b_ids = b.Populate(kUsers, 4);

  const IoTrace trace_a = DispatchedGroupTrace(a, a_ids, 11);
  const IoTrace trace_b = DispatchedGroupTrace(b, b_ids, 97);
  EXPECT_EQ(LevelTouchCounts(trace_a), LevelTouchCounts(trace_b));
  EXPECT_EQ(trace_a.size(), trace_b.size());
}

// ---- session teardown ----------------------------------------------------

TEST(DispatchTeardownTest, SessionCloseMidWindowReleasesTheGroup) {
  // Regression: the fill target counts open sessions, so sessions that
  // close mid-window must shrink it. Here two idle sessions close while
  // two loaded ones have requests pending; the group must commit as soon
  // as the population drops to the pending count, not wait out a window
  // sized far beyond the test timeout.
  System sys(201);
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(2, 2);

  DispatcherOptions options;
  options.max_batch = 8;
  options.commit_window = std::chrono::seconds(30);
  RequestDispatcher dispatcher(sys.agent.get(), options);

  std::vector<std::unique_ptr<RequestDispatcher::Session>> sessions;
  for (size_t u = 0; u < 4; ++u) sessions.push_back(dispatcher.OpenSession());

  const auto start = std::chrono::steady_clock::now();
  auto read0 = sessions[0]->AsyncRead(ids[0], 0, payload);
  auto read1 = sessions[1]->AsyncRead(ids[1], 0, payload);
  // Give the worker time to enter the linger (queue 2 < target 4), then
  // tear down the two sessions that will never submit.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sessions.resize(2);

  ASSERT_EQ(read0.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "group stalled on closed sessions";
  ASSERT_EQ(read1.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(20));

  auto data0 = read0.get();
  auto data1 = read1.get();
  ASSERT_TRUE(data0.ok());
  ASSERT_TRUE(data1.ok());
  EXPECT_EQ(*data0, sys.ExpectedBlock(0, 0));
  EXPECT_EQ(*data1, sys.ExpectedBlock(1, 0));
  sessions.clear();
  dispatcher.Stop();
  EXPECT_EQ(dispatcher.stats().requests, 2u);
}

TEST(DispatchTeardownTest, LastSessionCloseFlushesItsQueuedRequest) {
  // Regression: with every session closed, the fill target used to fall
  // back to max_batch — an async request whose session was torn down
  // right after submitting would stall for the whole commit window. An
  // emptied session population targets 1, as a sessionless one does.
  System sys(202);
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(1, 2);

  DispatcherOptions options;
  options.max_batch = 8;
  options.commit_window = std::chrono::seconds(30);
  RequestDispatcher dispatcher(sys.agent.get(), options);

  // Two sessions, so the linger starts with target 2 > the one pending
  // request; both then close with the request still queued.
  auto submitter = dispatcher.OpenSession();
  auto bystander = dispatcher.OpenSession();
  const auto start = std::chrono::steady_clock::now();
  auto read = submitter->AsyncRead(ids[0], 0, payload);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  submitter.reset();
  bystander.reset();

  ASSERT_EQ(read.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "queued request stalled after all sessions closed";
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(20));
  auto data = read.get();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, sys.ExpectedBlock(0, 0));
  dispatcher.Stop();
}

TEST(DispatchTeardownTest, ChurningSessionsUnderLoadNeverStall) {
  // Sessions opening and closing continuously while loaded neighbours
  // keep submitting: no combination of mid-window closes may stall a
  // committed group or corrupt content.
  System sys(203);
  const size_t kUsers = 4;
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(kUsers, 2);

  DispatcherOptions options;
  options.max_batch = 8;
  options.commit_window = std::chrono::milliseconds(20);
  RequestDispatcher dispatcher(sys.agent.get(), options);

  std::vector<std::function<Status()>> users;
  for (size_t u = 0; u < kUsers; ++u) {
    users.push_back([&, u]() -> Status {
      Rng rng(7000 + u);
      for (size_t op = 0; op < 8; ++op) {
        // A fresh session per op: every iteration closes mid-stream
        // relative to the other threads' windows.
        auto session = dispatcher.OpenSession();
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.Uniform(300)));
        STEGHIDE_ASSIGN_OR_RETURN(
            const Bytes back, session->Read(ids[u], 0, payload));
        if (back != sys.ExpectedBlock(u, 0)) {
          return Status::Internal("content mismatch under session churn");
        }
      }
      return Status::OK();
    });
  }
  for (const Status& status : workload::RunOnThreads(std::move(users))) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  dispatcher.Stop();
  EXPECT_EQ(dispatcher.stats().requests, kUsers * 8);
}

// ---- stress --------------------------------------------------------------

/// How the stress users reach the dispatcher: one session each
/// (session-counted groups) or direct submits (work-conserving groups).
enum class Submission { kSessions, kSessionless };

class DispatchStressTest : public ::testing::TestWithParam<Submission> {};

TEST_P(DispatchStressTest, ManyThreadsManyOpsKeepIntegrity) {
  System sys(991);
  const size_t kUsers = 8;
  const size_t kOps = 12;
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(kUsers, 3);

  DispatcherOptions options;
  options.max_batch = 8;
  options.commit_window = std::chrono::milliseconds(2);
  RequestDispatcher dispatcher(sys.agent.get(), options);

  std::vector<std::unique_ptr<RequestDispatcher::Session>> sessions;
  if (GetParam() == Submission::kSessions) {
    for (size_t u = 0; u < kUsers; ++u) {
      sessions.push_back(dispatcher.OpenSession());
    }
  }
  auto read = [&](size_t u, uint64_t offset) {
    return sessions.empty() ? dispatcher.SubmitRead(ids[u], offset, payload)
                            : sessions[u]->AsyncRead(ids[u], offset, payload);
  };
  auto write = [&](size_t u, uint64_t offset, Bytes data) {
    return sessions.empty()
               ? dispatcher.SubmitWrite(ids[u], offset, std::move(data))
               : sessions[u]->AsyncWrite(ids[u], offset, std::move(data));
  };

  // Each user owns one file: writes a versioned pattern to a random
  // block, immediately reads it back, and re-verifies a previously
  // written block — all with randomized arrival jitter.
  std::vector<std::function<Status()>> users;
  for (size_t u = 0; u < kUsers; ++u) {
    users.push_back([&, u]() -> Status {
      Rng rng(5000 + u);
      std::vector<Bytes> latest(3);
      for (size_t b = 0; b < 3; ++b) {
        latest[b] = sys.ExpectedBlock(u, b);
      }
      for (size_t op = 0; op < kOps; ++op) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.Uniform(400)));
        const uint64_t block = rng.Uniform(3);
        if (rng.Bernoulli(0.4)) {
          Bytes data(payload, static_cast<uint8_t>(u * 16 + op));
          STEGHIDE_RETURN_IF_ERROR(
              write(u, block * payload, data).get());
          latest[block] = std::move(data);
        }
        STEGHIDE_ASSIGN_OR_RETURN(const Bytes back,
                                  read(u, block * payload).get());
        if (back != latest[block]) {
          return Status::Internal("stale or corrupt read");
        }
      }
      return Status::OK();
    });
  }
  for (const Status& status : workload::RunOnThreads(std::move(users))) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  sessions.clear();
  dispatcher.Stop();

  const DispatcherStats stats = dispatcher.stats();
  EXPECT_GE(stats.requests, kUsers * kOps);
  EXPECT_GT(stats.grouped_requests, 0u);
  EXPECT_LE(stats.p50_latency_ms, stats.p99_latency_ms);
}

INSTANTIATE_TEST_SUITE_P(
    Submission, DispatchStressTest,
    ::testing::Values(Submission::kSessions, Submission::kSessionless),
    [](const ::testing::TestParamInfo<Submission>& info) {
      return info.param == Submission::kSessions ? "Sessions" : "Sessionless";
    });

TEST(DispatchStressTest, StatsSnapshotDuringLoadIsTearFree) {
  // Pollers racing the worker's counter updates: stats() is assembled
  // from atomic cells, so a snapshot taken mid-commit must be
  // consistent (never torn, monotone counters, percentiles ordered).
  // The dispatcher is wired to a live registry + trace log so the
  // instrumented path itself runs under TSan too.
  System sys(993);
  const size_t kUsers = 6;
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(kUsers, 3);

  obs::Registry registry;
  obs::TraceLog trace(1u << 12);
  trace.set_enabled(true);
  DispatcherOptions options;
  options.max_batch = 8;
  options.commit_window = std::chrono::milliseconds(2);
  options.registry = &registry;
  options.trace = &trace;
  RequestDispatcher dispatcher(sys.agent.get(), options);

  std::vector<std::unique_ptr<RequestDispatcher::Session>> sessions;
  for (size_t u = 0; u < kUsers; ++u) {
    sessions.push_back(dispatcher.OpenSession());
  }

  std::atomic<bool> done{false};
  std::thread poller([&] {
    uint64_t last = 0;
    uint64_t last_grouped = 0;
    while (!done.load(std::memory_order_acquire)) {
      const DispatcherStats s = dispatcher.stats();
      EXPECT_GE(s.requests, last);
      // Every commit's grouped bump is preceded by its submit bump, but
      // the poller's reads are not one instant: cells read later can
      // include progress the earlier reads missed. The order-robust
      // form bounds this iteration's requests by the PREVIOUS
      // iteration's grouped count.
      EXPECT_GE(s.requests, last_grouped);
      EXPECT_LE(s.p50_latency_ms, s.p99_latency_ms);
      last = s.requests;
      last_grouped = s.grouped_requests;
      // Snapshot and stats() read the same monotone cell at different
      // instants, so the earlier read can only be <= (exact equality is
      // asserted after quiescence below).
      const auto snap = registry.Snapshot();
      EXPECT_LE(static_cast<uint64_t>(snap.at("dispatcher.requests")),
                dispatcher.stats().requests);
    }
  });

  std::vector<std::function<Status()>> users;
  for (size_t u = 0; u < kUsers; ++u) {
    users.push_back([&, u]() -> Status {
      Rng rng(7000 + u);
      for (size_t op = 0; op < 10; ++op) {
        const uint64_t block = rng.Uniform(3);
        if (rng.Bernoulli(0.3)) {
          Bytes data(payload, static_cast<uint8_t>(u + op));
          STEGHIDE_RETURN_IF_ERROR(
              sessions[u]->Write(ids[u], block * payload, data));
        } else {
          STEGHIDE_RETURN_IF_ERROR(
              sessions[u]->Read(ids[u], block * payload, payload).status());
        }
      }
      return Status::OK();
    });
  }
  for (const Status& status : workload::RunOnThreads(std::move(users))) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  done.store(true, std::memory_order_release);
  poller.join();
  sessions.clear();
  dispatcher.Stop();

  const DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.requests, kUsers * 10);
  // Quiesced: the registry view and the stats() view agree exactly.
  EXPECT_EQ(static_cast<uint64_t>(
                registry.Snapshot().at("dispatcher.requests")),
            stats.requests);
  // Every submit opened an async trace interval and every completion
  // closed one.
  size_t begins = 0, ends = 0;
  for (const obs::TraceEvent& ev : trace.events()) {
    begins += ev.kind == obs::TraceEvent::Kind::kAsyncBegin;
    ends += ev.kind == obs::TraceEvent::Kind::kAsyncEnd;
  }
  if (trace.dropped() == 0) {
    EXPECT_EQ(begins, kUsers * 10);
    EXPECT_EQ(begins, ends);
  }
}

// ---- deamortized re-orders under the dispatcher ---------------------------

TEST(DispatchDeamortizedTest, ManyThreadsKeepIntegrityAcrossIncrementalChains) {
  // The ManyThreads stress on a deamortized store: every re-order now
  // runs as an incremental double-buffered chain advanced concurrently
  // by serving taxes and the dispatcher's idle pump — the TSan target
  // for the new path. Content must stay exact throughout.
  System sys(992, DeamortStoreOptions());
  const size_t kUsers = 8;
  const size_t kOps = 12;
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(kUsers, 3);

  DispatcherOptions options;
  options.max_batch = 8;
  options.commit_window = std::chrono::milliseconds(2);
  options.maintenance_budget = 16;
  RequestDispatcher dispatcher(sys.agent.get(), options);

  std::vector<std::unique_ptr<RequestDispatcher::Session>> sessions;
  for (size_t u = 0; u < kUsers; ++u) {
    sessions.push_back(dispatcher.OpenSession());
  }
  std::vector<std::function<Status()>> users;
  for (size_t u = 0; u < kUsers; ++u) {
    users.push_back([&, u]() -> Status {
      Rng rng(6000 + u);
      std::vector<Bytes> latest(3);
      for (size_t b = 0; b < 3; ++b) latest[b] = sys.ExpectedBlock(u, b);
      for (size_t op = 0; op < kOps; ++op) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.Uniform(400)));
        const uint64_t block = rng.Uniform(3);
        if (rng.Bernoulli(0.5)) {
          Bytes data(payload, static_cast<uint8_t>(u * 16 + op));
          STEGHIDE_RETURN_IF_ERROR(
              sessions[u]->Write(ids[u], block * payload, data));
          latest[block] = std::move(data);
        }
        STEGHIDE_ASSIGN_OR_RETURN(
            const Bytes back,
            sessions[u]->Read(ids[u], block * payload, payload));
        if (back != latest[block]) {
          return Status::Internal("stale or corrupt read under rebuild");
        }
      }
      return Status::OK();
    });
  }
  for (const Status& status : workload::RunOnThreads(std::move(users))) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  sessions.clear();
  dispatcher.Stop();
  EXPECT_GT(sys.agent->store().stats().reorders, 0u);
}

TEST(DispatchDeamortizedTest, ReaderCountsInstallsObservedMidBatch) {
  // Epoch consistency at the reader seam: a batch spans several store
  // critical sections, and chain installs may land between them. The
  // reader's reorder_epoch_flips stat counts those mid-batch installs —
  // here the miss-fill MultiInsert triggers chains whose taxes install
  // inside the very batch, so reads demonstrably keep flowing across
  // permutation flips instead of being fenced out by them.
  System sys(994, DeamortStoreOptions());
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(6, 4, /*prewarm=*/false);

  // First-touch reads: each batch miss-fills 4 blocks, and the fills'
  // flushes install mid-batch once the buffer cycles.
  for (size_t f = 0; f < ids.size(); ++f) {
    ASSERT_TRUE(sys.agent->Read(ids[f], 0, 4 * payload).ok());
  }
  // Cached re-reads keep staging records, so chains keep installing.
  for (int round = 0; round < 8; ++round) {
    for (size_t f = 0; f < ids.size(); ++f) {
      ASSERT_TRUE(sys.agent->Read(ids[f], 0, 4 * payload).ok());
    }
  }
  EXPECT_GT(sys.agent->reader().stats().reorder_epoch_flips, 0u)
      << "no install was ever observed inside a reader batch";
}

TEST(DispatchDeamortizedTest, IdleDispatcherPumpsReorderBacklogDry) {
  // A large chain left pending must be drained by the dispatcher's idle
  // maintenance pump, not by serving taxes: park a deep rebuild in the
  // store while the worker sleeps, wake it with a single request, and
  // watch the backlog go dry with no further traffic.
  System sys(993, DeamortStoreOptions());
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(1, 3);

  DispatcherOptions options;
  options.max_batch = 4;
  options.commit_window = std::chrono::milliseconds(1);
  options.maintenance_budget = 8;
  RequestDispatcher dispatcher(sys.agent.get(), options);
  auto session = dispatcher.OpenSession();

  // Build a big backlog directly at the store layer (the dispatcher's
  // condvar is not signalled by store-internal work, so the worker stays
  // asleep and cannot drain it yet). Pre-fill deep levels first — with
  // everything drained — so the burst below triggers a cascade chain too
  // large for any single serving tax slice to finish.
  auto& store = sys.agent->store();
  uint64_t next_id = 1 << 20;
  {
    Bytes fill(8 * store.payload_size(), 0x11);
    std::vector<oblivious::RecordId> ids(8);
    for (int round = 0; round < 10; ++round) {
      for (auto& id : ids) id = next_id++;
      ASSERT_TRUE(store.MultiInsert(ids, fill.data()).ok());
      bool more = true;
      while (more) ASSERT_TRUE(store.StepReorder(1u << 20, &more).ok());
    }
  }
  Bytes payloads(32 * store.payload_size(), 0x5a);
  std::vector<oblivious::RecordId> fresh(32);
  for (auto& id : fresh) id = next_id++;
  bool pending = false;
  for (int round = 0; round < 8 && !pending; ++round) {
    // Re-staging the same ids keeps the flush pressure up without
    // growing the present set past capacity.
    ASSERT_TRUE(store.MultiInsert(fresh, payloads.data()).ok());
    pending = store.reorder_pending();
  }
  ASSERT_TRUE(pending) << "no re-order chain ever went pending";

  // One request wakes the worker; after committing it the idle loop
  // pumps the chain dry.
  ASSERT_TRUE(session->Read(ids[0], 0, payload).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (store.reorder_pending() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(store.reorder_pending())
      << "idle pump failed to drain the chain";
  EXPECT_GT(dispatcher.stats().maintenance_pumps, 0u);

  // Served content is intact after the idle-time installs.
  auto back = session->Read(ids[0], 0, payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, sys.ExpectedBlock(0, 0));
  session.reset();
  dispatcher.Stop();
}

}  // namespace
}  // namespace steghide::agent
