// Observability layer coverage: registry exactness under concurrency,
// histogram percentiles against a reference sort, span nesting and
// attribution, Chrome-trace/metrics export schema, snapshotter pacing,
// the leakage-neutrality pin — an instrumented store's attacker-visible
// device trace is bit-identical to an uninstrumented twin's — and the
// registry export pin over every instrumented layer of one system.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agent/dispatch/request_dispatcher.h"
#include "agent/oblivious_agent.h"
#include "oblivious/oblivious_store.h"
#include "obs/metrics.h"
#include "obs/snapshotter.h"
#include "obs/trace_export.h"
#include "obs/trace_log.h"
#include "stegfs/block_codec.h"
#include "stegfs/stegfs_core.h"
#include "storage/mem_block_device.h"
#include "storage/trace_device.h"
#include "storage/volume_set.h"
#include "testing/rng.h"

namespace steghide::obs {
namespace {

// ---- CounterCell / Registry under concurrency ----------------------------

TEST(CounterCellTest, ConcurrentAddsSumExactly) {
  CounterCell cell;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cell] {
      for (uint64_t i = 0; i < kPerThread; ++i) cell.AddShared(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cell.value(), kThreads * kPerThread);
}

TEST(RegistryTest, SnapshotSeesConcurrentWriters) {
  // Readers polling Snapshot() while writers hammer the cell must only
  // ever see monotonically plausible values (never torn, never above
  // the true total) and the final snapshot must be exact. Run under
  // TSan this is also the data-race regression for the old plain-struct
  // stats designs.
  Registry registry;
  CounterCell cell;
  Registration reg(&registry);
  reg.Counter("hammer.count", &cell);

  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 50000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = registry.Snapshot();
      const auto it = snap.find("hammer.count");
      ASSERT_NE(it, snap.end());
      const auto v = static_cast<uint64_t>(it->second);
      EXPECT_GE(v, last);
      EXPECT_LE(v, kWriters * kPerWriter);
      last = v;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&cell] {
      for (uint64_t i = 0; i < kPerWriter; ++i) cell.AddShared(1);
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(registry.Snapshot().at("hammer.count"),
            static_cast<double>(kWriters * kPerWriter));
}

TEST(RegistryTest, LatchSurvivesUnregistration) {
  Registry registry;
  {
    CounterCell cell;
    Registration reg(&registry);
    reg.Counter("gone.count", &cell);
    cell.Add(42);
  }  // Registration released; Unregister latches the final value.
  const auto snap = registry.Snapshot();
  ASSERT_TRUE(snap.count("gone.count"));
  EXPECT_EQ(snap.at("gone.count"), 42.0);
}

TEST(RegistryTest, CallbacksAppearInSnapshot) {
  Registry registry;
  Registration reg(&registry);
  reg.Callback("derived.value", [] { return 7.0; });
  const auto snap = registry.Snapshot();
  EXPECT_EQ(snap.at("derived.value"), 7.0);
}

// ---- Histogram percentiles vs reference sort -----------------------------

TEST(HistogramCellTest, PercentilesTrackReferenceSort) {
  HistogramCell hist;
  steghide::Rng rng = testing::MakeTestRng();
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    // Mixed scales: microsecond-ish to multi-second virtual latencies.
    const double v =
        std::ldexp(1.0 + rng.Uniform(1000) / 1000.0,
                   static_cast<int>(rng.Uniform(20)) - 8);
    values.push_back(v);
    hist.Record(v);
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(hist.count(), values.size());
  EXPECT_EQ(hist.min(), sorted.front());
  EXPECT_EQ(hist.max(), sorted.back());
  for (const double q : {10.0, 50.0, 90.0, 99.0}) {
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(q / 100.0 * static_cast<double>(sorted.size())));
    const double ref = sorted[idx];
    // Log-linear buckets with 64 sub-buckets per octave: <= ~0.8%
    // relative error on the representative.
    EXPECT_NEAR(hist.Percentile(q), ref, ref * 0.01)
        << "q=" << q;
  }
  // Distribution endpoints are exact, not bucket midpoints.
  EXPECT_EQ(hist.Percentile(0), sorted.front());
  EXPECT_EQ(hist.Percentile(100), sorted.back());
}

TEST(HistogramCellTest, ConcurrentRecordsCountExactly) {
  HistogramCell hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(hist.min(), 1.0);
  EXPECT_EQ(hist.max(), static_cast<double>(kThreads));
}

// ---- Span nesting and attribution ----------------------------------------

TEST(TraceLogTest, SpanNestingAndAttributionGolden) {
  TraceLog log(64);
  double clock = 0.0;
  log.set_clock_fn([&clock] { return clock; });
  log.set_enabled(true);
  const uint32_t outer_track = log.RegisterTrack("store");
  const uint32_t inner_track = log.RegisterTrack("io");
  EXPECT_EQ(log.RegisterTrack("store"), outer_track);  // idempotent

  {
    ScopedSpan outer(&log, "store.scan", outer_track, {{"passes", 2}});
    clock = 10.0;
    {
      ScopedSpan inner(&log, "io.drain", inner_track, {{"reqs", 5}});
      clock = 15.0;
    }
    outer.AddArg("records", 7);
    clock = 25.0;
  }

  const auto events = log.events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first.
  EXPECT_STREQ(events[0].label(), "io.drain");
  EXPECT_EQ(events[0].track, inner_track);
  EXPECT_EQ(events[0].ts_ms, 10.0);
  EXPECT_EQ(events[0].dur_ms, 5.0);
  ASSERT_EQ(events[0].num_args, 1);
  EXPECT_STREQ(events[0].args[0].key, "reqs");
  EXPECT_EQ(events[0].args[0].value, 5);

  EXPECT_STREQ(events[1].label(), "store.scan");
  EXPECT_EQ(events[1].track, outer_track);
  EXPECT_EQ(events[1].ts_ms, 0.0);
  EXPECT_EQ(events[1].dur_ms, 25.0);
  ASSERT_EQ(events[1].num_args, 2);
  EXPECT_STREQ(events[1].args[0].key, "passes");
  EXPECT_EQ(events[1].args[0].value, 2);
  EXPECT_STREQ(events[1].args[1].key, "records");
  EXPECT_EQ(events[1].args[1].value, 7);
}

TEST(TraceLogTest, DisabledOrNullLogRecordsNothing) {
  TraceLog log(64);
  {
    ScopedSpan off(&log, "noop", 0);  // log exists but is disabled
    ScopedSpan null(nullptr, "noop", 0);
    EXPECT_FALSE(off.active());
    EXPECT_FALSE(null.active());
  }
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceLogTest, BoundedCapacityCountsDrops) {
  TraceLog log(4);
  log.set_enabled(true);
  for (int i = 0; i < 10; ++i) log.Instant("tick", 0);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
}

TEST(TraceLogTest, AsyncIntervalsCarryIds) {
  TraceLog log(16);
  log.set_enabled(true);
  log.AsyncBegin("dispatch.request", 7, 0, {{"write", 0}});
  log.AsyncEnd("dispatch.request", 7, 0);
  const auto events = log.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kAsyncBegin);
  EXPECT_EQ(events[0].id, 7u);
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kAsyncEnd);
  EXPECT_EQ(events[1].id, 7u);
}

// ---- Export schema -------------------------------------------------------

TEST(TraceExportTest, ChromeTraceSchemaRoundTrip) {
  TraceLog log(64);
  double clock = 0.0;
  log.set_clock_fn([&clock] { return clock; });
  log.set_enabled(true);
  const uint32_t track = log.RegisterTrack("store");
  {
    ScopedSpan span(&log, "store.scan", track, {{"passes", 3}});
    clock = 4.0;
  }
  log.Instant("store.install", track, {{"level", 2}});
  log.AsyncBegin("dispatch.request", 1, track);
  log.AsyncEnd("dispatch.request", 1, track);
  log.CounterSample("store.chain_pending_steps", 5.0);

  const std::string json = ChromeTraceJson(log);
  // Top-level schema.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // One thread_name metadata record per track (main + store).
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"store\""), std::string::npos);
  // Span: complete event, ts/dur in microseconds (4 virtual ms = 4000).
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4000"), std::string::npos);
  EXPECT_NE(json.find("\"passes\":3"), std::string::npos);
  // Instant, async pair, counter sample.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness pin without a JSON
  // parser in the test toolchain).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceExportTest, MetricsJsonExpandsHistograms) {
  Registry registry;
  CounterCell counter;
  HistogramCell hist;
  Registration reg(&registry);
  reg.Counter("io.reads", &counter);
  reg.Histogram("dispatcher.latency_ms", &hist);
  counter.Add(12);
  for (int i = 1; i <= 100; ++i) hist.Record(static_cast<double>(i));

  const std::string json = MetricsJson(registry);
  EXPECT_NE(json.find("\"io.reads\": 12"), std::string::npos);
  for (const char* key :
       {"dispatcher.latency_ms.count", "dispatcher.latency_ms.mean",
        "dispatcher.latency_ms.p50", "dispatcher.latency_ms.p90",
        "dispatcher.latency_ms.p99", "dispatcher.latency_ms.max"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// ---- Snapshotter ---------------------------------------------------------

TEST(SnapshotterTest, SamplesAtIntervalWithPrefixFilter) {
  Registry registry;
  CounterCell wanted, unwanted;
  Registration reg(&registry);
  reg.Counter("store.user_reads", &wanted);
  reg.Counter("io.reads", &unwanted);
  wanted.Add(3);
  unwanted.Add(9);

  TraceLog log(64);
  double clock = 0.0;
  log.set_clock_fn([&clock] { return clock; });
  log.set_enabled(true);
  StatsSnapshotter snap(&registry, &log, /*interval_ms=*/10.0, {"store."});

  snap.MaybeSample();  // t=0: due immediately
  snap.MaybeSample();  // still inside the interval: no-op
  clock = 5.0;
  snap.MaybeSample();
  clock = 12.0;
  snap.MaybeSample();
  EXPECT_EQ(snap.samples(), 2u);

  size_t counter_events = 0;
  for (const TraceEvent& ev : log.events()) {
    ASSERT_EQ(ev.kind, TraceEvent::Kind::kCounter);
    EXPECT_EQ(ev.owned_name, "store.user_reads");
    EXPECT_EQ(ev.value, 3.0);
    ++counter_events;
  }
  EXPECT_EQ(counter_events, 2u);
}

// ---- Leakage neutrality --------------------------------------------------

oblivious::ObliviousStoreOptions TwinOptions(uint64_t seed) {
  constexpr uint64_t kB = 4, kN = 32;
  const uint64_t hierarchy = 2 * kN - 2 * kB;
  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = kB;
  opts.capacity_blocks = kN;
  opts.partition_base = 0;
  opts.scratch_base = hierarchy;
  opts.shadow_base = hierarchy + kN;
  opts.deamortize_reorders = true;
  opts.reorder_step_blocks = 1;
  opts.drbg_seed = seed;
  return opts;
}

// Runs an identical op schedule against an instrumented and an
// uninstrumented twin; the attacker-visible device traces must be
// bit-identical — instrumentation only records, it never changes what
// the store touches.
TEST(LeakageNeutralityTest, InstrumentedTraceEqualsUninstrumentedTwin) {
  constexpr uint64_t kSeed = 61;
  const auto run = [](oblivious::ObliviousStoreOptions opts,
                      storage::TraceBlockDevice& trace_dev) {
    auto store = oblivious::ObliviousStore::Create(&trace_dev, opts);
    ASSERT_TRUE(store.ok());
    Bytes payload((*store)->payload_size());
    Bytes out((*store)->payload_size());
    steghide::Rng rng(kSeed + 1);
    for (uint64_t id = 0; id < 24; ++id) {
      std::fill(payload.begin(), payload.end(), static_cast<uint8_t>(id));
      ASSERT_TRUE((*store)->Insert(id, payload.data()).ok());
    }
    for (int op = 0; op < 120; ++op) {
      const uint64_t id = rng.Uniform(24);
      if (rng.Bernoulli(0.3)) {
        std::fill(payload.begin(), payload.end(), static_cast<uint8_t>(op));
        ASSERT_TRUE((*store)->Write(id, payload.data()).ok());
      } else {
        ASSERT_TRUE((*store)->Read(id, out.data()).ok());
      }
      if (op % 7 == 0) {
        ASSERT_TRUE((*store)->DummyRead().ok());
      }
    }
    bool more = true;
    while (more) ASSERT_TRUE((*store)->StepReorder(1u << 20, &more).ok());
  };

  const uint64_t device_blocks =
      2 * (2 * 32 - 2 * 4) + 32 + 8;  // hierarchy + shadow + scratch slack

  storage::MemBlockDevice plain_mem(device_blocks, 4096);
  storage::TraceBlockDevice plain_trace(&plain_mem);
  run(TwinOptions(kSeed), plain_trace);

  storage::MemBlockDevice obs_mem(device_blocks, 4096);
  storage::TraceBlockDevice obs_trace(&obs_mem);
  Registry registry;
  TraceLog log;
  log.set_enabled(true);
  oblivious::ObliviousStoreOptions instrumented = TwinOptions(kSeed);
  instrumented.registry = &registry;
  instrumented.trace = &log;
  run(instrumented, obs_trace);

  // Observability recorded plenty...
  EXPECT_GT(log.size(), 0u);
  EXPECT_GT(registry.Snapshot().at("store.user_reads"), 0.0);
  // ...and perturbed nothing: same ops, same blocks, same order.
  ASSERT_EQ(plain_trace.trace().size(), obs_trace.trace().size());
  EXPECT_TRUE(plain_trace.trace() == obs_trace.trace());
}

// A store's virtual-time sums are exported from their cells. Its
// registration is released in the store's destructor and latches each
// cell once more, so the registry must still hold the final values after
// the store is gone.
TEST(RegistryTest, DestroyedStoreLeavesItsFinalTimes) {
  Registry registry;
  oblivious::ObliviousStoreOptions opts = TwinOptions(71);
  opts.registry = &registry;
  storage::MemBlockDevice mem(2 * (2 * 32 - 2 * 4) + 32 + 8, 4096);
  oblivious::ObliviousStats final_stats;
  double now = 0.0;
  {
    auto store = oblivious::ObliviousStore::Create(&mem, opts);
    ASSERT_TRUE(store.ok());
    (*store)->set_clock_fn([&now] { return now += 1.0; });
    Bytes payload((*store)->payload_size(), 0x5a);
    for (uint64_t id = 0; id < 24; ++id) {
      ASSERT_TRUE((*store)->Insert(id, payload.data()).ok());
    }
    for (uint64_t id = 0; id < 24; ++id) {
      ASSERT_TRUE((*store)->Read(id, payload.data()).ok());
    }
    bool more = true;
    while (more) ASSERT_TRUE((*store)->StepReorder(1u << 20, &more).ok());
    final_stats = (*store)->stats();
  }
  ASSERT_GT(final_stats.retrieve_ms, 0.0);
  ASSERT_GT(final_stats.sort_ms, 0.0);
  const auto snap = registry.Snapshot();
  ASSERT_TRUE(snap.count("store.retrieve_ms"));
  ASSERT_TRUE(snap.count("store.sort_ms"));
  EXPECT_EQ(snap.at("store.retrieve_ms"), final_stats.retrieve_ms);
  EXPECT_EQ(snap.at("store.sort_ms"), final_stats.sort_ms);
}


// ---- Registry export pin -------------------------------------------------

using Snapshot = std::map<std::string, double>;

// Each (suffix, value) pair must be exported as "<prefix>.<suffix>" with
// exactly that value.
void ExpectExported(const Snapshot& snap, const std::string& prefix,
                    std::initializer_list<std::pair<const char*, double>>
                        fields) {
  for (const auto& [suffix, value] : fields) {
    const std::string name = prefix + "." + suffix;
    const auto it = snap.find(name);
    if (it == snap.end()) {
      ADD_FAILURE() << name << " is not exported";
      continue;
    }
    EXPECT_EQ(it->second, value) << name;
  }
}

// Appends "<prefix>.<suffix>" for each suffix.
void AddNames(std::vector<std::string>* names, const std::string& prefix,
              std::initializer_list<const char*> suffixes) {
  for (const char* suffix : suffixes) names->push_back(prefix + "." + suffix);
}

void AddHistogramNames(std::vector<std::string>* names,
                       const std::string& name) {
  AddNames(names, name, {"count", "mean", "p50", "p90", "p99", "max"});
}

// The full name set of the system below, as exported before the
// counters moved to per-component descriptor tables, plus the mirror's
// two lag counters.
std::vector<std::string> ExpectedExportNames() {
  std::vector<std::string> names;
  AddNames(&names, "crypto",
           {"accel_aes", "accel_sha256", "batches", "blocks", "bytes"});
  AddNames(&names, "dispatcher",
           {"requests", "read_requests", "write_requests", "groups",
            "read_groups", "write_groups", "grouped_requests",
            "maintenance_pumps", "maintenance_pump_errors",
            "maintenance_pump_retries", "maintenance_escalations",
            "queue_depth"});
  AddHistogramNames(&names, "dispatcher.latency_ms");
  AddHistogramNames(&names, "dispatcher.fill");
  AddNames(&names, "store",
           {"user_reads", "user_writes", "dummy_reads", "buffer_hits",
            "level_probe_reads", "index_io", "reorder_reads",
            "reorder_writes", "reorders", "buffer_flushes",
            "batched_requests", "scan_passes", "probes_saved",
            "reorder_steps", "deferred_flushes", "stall_total_ms",
            "chain_pending_steps", "chain_remaining_blocks", "retrieve_ms",
            "sort_ms"});
  AddHistogramNames(&names, "store.stall_ms");
  AddNames(&names, "io",
           {"drains", "physical_reads", "retries", "recovered",
            "exhausted"});
  AddHistogramNames(&names, "io.queue_depth");
  AddNames(&names, "reader",
           {"cache_hits", "real_fetches", "decoy_reads", "dummy_reads",
            "reorder_epoch_flips"});
  for (const std::string shard : {"cache.shard0", "cache.shard1"}) {
    AddNames(&names, shard,
             {"reads", "writes", "failovers", "quarantines",
              "repairs_completed", "repair_blocks", "read_repairs",
              "quorum_widened", "quorum_stale_reads",
              "write_quorum_failures", "lag_episodes", "missed_writes",
              "healthy_replicas", "lagging_replicas"});
    AddHistogramNames(&names, shard + ".failover_ms");
    for (const std::string& replica : {shard + ".r0", shard + ".r1"}) {
      AddNames(&names, replica,
               {"reads", "writes", "sequential", "random", "busy_ms",
                "clock_ms"});
      AddNames(&names, replica + ".fault",
               {"ops", "injected_errors", "corrupted_blocks", "torn_writes",
                "latency_events"});
    }
  }
  AddNames(&names, "cache.shard1.r1.remote",
           {"rpcs", "rpc_retries", "bytes_sent", "bytes_received",
            "timeouts", "reconnects", "connect_failures"});
  AddNames(&names, "cache.shard1.r1.transport",
           {"frames", "partitioned_frames", "delayed_frames",
            "dropped_connections"});
  AddNames(&names, "cache.shard1.r1.server",
           {"connections", "requests", "bytes_in", "bytes_out"});
  std::sort(names.begin(), names.end());
  return names;
}

// Every instrumented layer of one small system exports into one registry:
// a store with io_retry, the reader, a dispatcher, a 2-shard x 2-replica
// quorum VolumeSet with block and transport fault plans and one
// loopback-remote replica, and the crypto traffic cells. After a fixed
// workload, the name set must match the list above and every counter
// must read in the registry what its component's stats() reports. A
// registration dropped, renamed or wired to the wrong cell fails here.
TEST(RegistryExportPinTest, EveryLayerExportsItsStats) {
  Registry registry;
  storage::VolumeSet::Options vopts;
  vopts.shards = 2;
  vopts.replicas = 2;
  vopts.total_blocks = 768;
  vopts.block_size = 4096;
  vopts.fault_plan = [](size_t k, size_t r) {
    storage::FaultPlan plan;
    storage::FaultSpec spec;
    if (k == 0 && r == 0) {
      spec.kind = storage::FaultSpec::Kind::kTransientError;
      spec.every_nth = 23;
      spec.start_after = 20;
      spec.max_fires = 3;
      plan.faults.push_back(spec);
    } else if (k == 1 && r == 0) {
      spec.kind = storage::FaultSpec::Kind::kLatency;
      spec.every_nth = 11;
      spec.latency_ms = 0.5;
      plan.faults.push_back(spec);
    }
    return plan;
  };
  vopts.replication.quorum = true;
  vopts.replication.write_quorum = 1;
  vopts.replication.read_quorum = 1;
  vopts.remote = [](size_t k, size_t r) { return k == 1 && r == 1; };
  vopts.transport_fault_plan = [](size_t, size_t) {
    storage::FaultPlan plan;
    storage::FaultSpec spec;
    spec.kind = storage::FaultSpec::Kind::kDelayRpc;
    spec.every_nth = 5;
    spec.latency_ms = 0.25;
    plan.faults.push_back(spec);
    return plan;
  };
  vopts.remote_options.rpc_deadline_ms = 5000.0;
  storage::VolumeSet volumes(vopts);
  volumes.RegisterMetrics(&registry, "cache");
  const Registration crypto = stegfs::RegisterCryptoMetrics(&registry);

  storage::MemBlockDevice steg_mem(4096, 4096);
  stegfs::StegFsCore core(&steg_mem, stegfs::StegFsOptions{29, true});
  ASSERT_TRUE(core.Format().ok());
  oblivious::ObliviousStoreOptions sopts;
  sopts.buffer_blocks = 8;
  sopts.capacity_blocks = 128;
  sopts.scratch_base = 2 * 128 - 2 * 8;
  sopts.shadow_base = sopts.scratch_base + 128;
  sopts.deamortize_reorders = true;
  sopts.reorder_step_blocks = 4;
  sopts.drbg_seed = 31;
  sopts.io_retry = storage::RetryPolicy{};
  sopts.registry = &registry;
  auto created = agent::ObliviousAgent::Create(&core, &volumes.device(), sopts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  agent::ObliviousAgent& agent = **created;
  agent.store().set_clock_fn([&volumes] { return volumes.clock_ms(); });
  ASSERT_TRUE(agent.CreateDummyFile("u", 600).ok());
  const size_t payload = core.payload_size();
  constexpr size_t kFiles = 6, kBlocks = 3;
  std::vector<agent::ObliviousAgent::FileId> files;
  for (size_t f = 0; f < kFiles; ++f) {
    auto id = agent.CreateHiddenFile("u");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(agent
                    .Write(*id, 0,
                           Bytes(kBlocks * payload, static_cast<uint8_t>(f)))
                    .ok());
    files.push_back(*id);
  }

  agent::DispatcherOptions dopts;
  dopts.max_batch = 8;
  dopts.clock_fn = [&volumes] { return volumes.clock_ms(); };
  dopts.registry = &registry;
  agent::RequestDispatcher dispatcher(&agent, dopts);
  for (size_t round = 0; round < 16; ++round) {
    std::vector<std::future<Result<Bytes>>> reads;
    std::vector<std::future<Status>> writes;
    for (size_t f = 0; f < kFiles; ++f) {
      const uint64_t offset = ((round + f) % kBlocks) * payload;
      if ((round + f) % 3 == 0) {
        writes.push_back(dispatcher.SubmitWrite(
            files[f], offset,
            Bytes(payload, static_cast<uint8_t>(0x40 + round))));
      }
      reads.push_back(dispatcher.SubmitRead(files[f], offset, payload));
    }
    for (auto& w : writes) ASSERT_TRUE(w.get().ok());
    for (auto& r : reads) ASSERT_TRUE(r.get().ok());
  }
  dispatcher.Stop();

  const Snapshot snap = registry.Snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap) names.push_back(name);
  EXPECT_EQ(names, ExpectedExportNames());

  const agent::DispatcherStats d = dispatcher.stats();
  EXPECT_GT(d.requests, 0u);
  ExpectExported(
      snap, "dispatcher",
      {{"requests", d.requests}, {"read_requests", d.read_requests},
       {"write_requests", d.write_requests}, {"groups", d.groups},
       {"read_groups", d.read_groups}, {"write_groups", d.write_groups},
       {"grouped_requests", d.grouped_requests},
       {"maintenance_pumps", d.maintenance_pumps},
       {"maintenance_pump_errors", d.maintenance_pump_errors},
       {"maintenance_pump_retries", d.maintenance_pump_retries},
       {"maintenance_escalations", d.maintenance_escalations},
       {"fill.max", d.max_fill}, {"latency_ms.p50", d.p50_latency_ms},
       {"latency_ms.p90", d.p90_latency_ms},
       {"latency_ms.p99", d.p99_latency_ms}});

  const oblivious::ObliviousStats s = agent.store().stats();
  EXPECT_GT(s.user_reads, 0u);
  EXPECT_GT(s.reorders, 0u);
  ExpectExported(
      snap, "store",
      {{"user_reads", s.user_reads}, {"user_writes", s.user_writes},
       {"dummy_reads", s.dummy_reads}, {"buffer_hits", s.buffer_hits},
       {"level_probe_reads", s.level_probe_reads}, {"index_io", s.index_io},
       {"reorder_reads", s.reorder_reads},
       {"reorder_writes", s.reorder_writes}, {"reorders", s.reorders},
       {"buffer_flushes", s.buffer_flushes},
       {"batched_requests", s.batched_requests},
       {"scan_passes", s.scan_passes}, {"probes_saved", s.probes_saved},
       {"reorder_steps", s.reorder_steps},
       {"deferred_flushes", s.deferred_flushes},
       {"retrieve_ms", s.retrieve_ms}, {"sort_ms", s.sort_ms},
       {"stall_total_ms", s.stall_ms}, {"stall_ms.max", s.max_stall_ms},
       {"stall_ms.p99", s.stall_p99_ms}});

  const storage::IoSchedulerStats io = agent.store().io_stats();
  EXPECT_GT(io.drains, 0u);
  ExpectExported(snap, "io",
                 {{"drains", io.drains},
                  {"physical_reads", io.physical_reads},
                  {"retries", io.retries},
                  {"exhausted", io.retry_exhausted},
                  {"queue_depth.p99", io.queue_depth_p99}});

  const oblivious::StegPartitionReader::Stats rd = agent.reader().stats();
  EXPECT_GT(rd.real_fetches, 0u);
  ExpectExported(snap, "reader",
                 {{"cache_hits", rd.cache_hits},
                  {"real_fetches", rd.real_fetches},
                  {"decoy_reads", rd.decoy_reads},
                  {"dummy_reads", rd.dummy_reads},
                  {"reorder_epoch_flips", rd.reorder_epoch_flips}});

  for (size_t k = 0; k < 2; ++k) {
    const std::string shard = "cache.shard" + std::to_string(k);
    const storage::ReplicationStats rep = volumes.replicated(k)->stats();
    EXPECT_GT(rep.reads, 0u);
    ExpectExported(
        snap, shard,
        {{"reads", rep.reads}, {"writes", rep.writes},
         {"failovers", rep.failovers}, {"quarantines", rep.quarantines},
         {"repairs_completed", rep.repairs_completed},
         {"repair_blocks", rep.repair_blocks},
         {"read_repairs", rep.read_repairs},
         {"quorum_widened", rep.quorum_widened},
         {"quorum_stale_reads", rep.quorum_stale_reads},
         {"write_quorum_failures", rep.write_quorum_failures},
         {"healthy_replicas", static_cast<double>(rep.healthy_replicas)},
         {"lagging_replicas", static_cast<double>(rep.lagging_replicas)},
         {"failover_ms.max", rep.failover_ms_max},
         {"failover_ms.mean", rep.failover_ms_mean},
         {"failover_ms.p50", rep.failover_ms_p50},
         {"failover_ms.p99", rep.failover_ms_p99}});
    for (size_t r = 0; r < 2; ++r) {
      const std::string replica = shard + ".r" + std::to_string(r);
      const storage::IoStats io_r = volumes.sim(k, r).stats();
      EXPECT_GT(io_r.total_ops(), 0u);
      ExpectExported(snap, replica,
                     {{"reads", io_r.reads}, {"writes", io_r.writes},
                      {"sequential", io_r.sequential},
                      {"random", io_r.random}, {"busy_ms", io_r.busy_ms},
                      {"clock_ms", volumes.sim(k, r).clock_ms()}});
      const storage::FaultStats f = volumes.fault(k, r)->stats();
      EXPECT_GT(f.ops, 0u);
      ExpectExported(snap, replica + ".fault",
                     {{"ops", f.ops},
                      {"injected_errors", f.injected_errors},
                      {"corrupted_blocks", f.corrupted_blocks},
                      {"torn_writes", f.torn_writes},
                      {"latency_events", f.latency_events}});
    }
  }
  EXPECT_GT(volumes.fault(0, 0)->stats().injected_errors, 0u);
  EXPECT_GT(volumes.fault(1, 0)->stats().latency_events, 0u);

  const storage::remote::RemoteStats rs = volumes.remote_device(1, 1)->stats();
  EXPECT_GT(rs.rpcs, 0u);
  ExpectExported(snap, "cache.shard1.r1.remote",
                 {{"rpcs", rs.rpcs}, {"rpc_retries", rs.rpc_retries},
                  {"bytes_sent", rs.bytes_sent},
                  {"bytes_received", rs.bytes_received},
                  {"timeouts", rs.timeouts}, {"reconnects", rs.reconnects},
                  {"connect_failures", rs.connect_failures}});
  const storage::remote::TransportFaultStats ts =
      volumes.transport_fault(1, 1)->stats();
  EXPECT_GT(ts.delayed_frames, 0u);
  ExpectExported(snap, "cache.shard1.r1.transport",
                 {{"frames", ts.frames},
                  {"partitioned_frames", ts.partitioned_frames},
                  {"delayed_frames", ts.delayed_frames},
                  {"dropped_connections", ts.dropped_connections}});
  // On a link that never dropped, the server saw one connection, the
  // handshake plus every RPC, and exactly the client's bytes.
  ExpectExported(snap, "cache.shard1.r1.server",
                 {{"connections", 1.0},
                  {"requests", rs.rpcs + 1},
                  {"bytes_in", rs.bytes_sent},
                  {"bytes_out", rs.bytes_received}});

  const stegfs::CryptoTrafficSnapshot c = stegfs::GlobalCryptoTraffic();
  ExpectExported(snap, "crypto",
                 {{"bytes", c.bytes}, {"blocks", c.blocks},
                  {"batches", c.batches}});
}

}  // namespace
}  // namespace steghide::obs
