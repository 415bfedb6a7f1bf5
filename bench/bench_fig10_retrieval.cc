// Reproduces Figure 10 of the paper: data-retrieval performance.
//  (a) access time vs file size, single user        (Fig. 10a / E1)
//  (b) access time vs number of concurrent users    (Fig. 10b / E2)
//
// All reported values are VIRTUAL disk milliseconds from the DiskModel
// (counters access_time_s / mean_access_s); wall-clock columns are
// meaningless here. Volume: 512 MB, 4 KB blocks; files (4,8] MB as in
// Table 2.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <map>

#include "bench/harness.h"
#include "stegfs/block_codec.h"

#include "agent/dispatch/request_dispatcher.h"
#include "bench/common.h"
#include "workload/concurrency.h"
#include "workload/file_population.h"

namespace steghide::bench {
namespace {

constexpr uint64_t kVolumeBlocks = 131072;  // 512 MB

void RunFileSizeSweep(benchmark::State& state, SystemKind kind,
                      uint64_t file_mb) {
  for (auto _ : state) {
    const uint64_t file_bytes = file_mb << 20;
    const uint64_t data_blocks = file_bytes / 4080 + 16;
    auto sys = MakeSystem(kind, kVolumeBlocks, 1000 + file_mb,
                          /*steghide_dummy_blocks=*/data_blocks + 4096);
    auto id = sys.adapter->CreateFile(file_bytes);
    if (!id.ok()) std::abort();

    const double t0 = sys.clock_ms();
    workload::FileReadTask task(sys.adapter.get(), *id, file_bytes);
    for (;;) {
      auto done = task.Step();
      if (!done.ok()) std::abort();
      if (*done) break;
    }
    state.counters["access_time_s"] = (sys.clock_ms() - t0) / 1e3;
  }
}

void RunConcurrencySweep(benchmark::State& state, SystemKind kind,
                         uint64_t users) {
  for (auto _ : state) {
    Rng rng(2000 + users);
    // Each user retrieves one (4,8] MB file (Table 2).
    const uint64_t est_blocks = users * (8ull << 20) / 4080 + 16;
    auto sys = MakeSystem(kind, kVolumeBlocks, 3000 + users,
                          /*steghide_dummy_blocks=*/est_blocks + 4096);
    workload::PopulationSpec spec;
    spec.file_count = users;
    auto pop = workload::CreatePopulation(*sys.adapter, rng, spec);
    if (!pop.ok()) std::abort();

    std::vector<std::unique_ptr<workload::IoTask>> tasks;
    for (size_t u = 0; u < users; ++u) {
      tasks.push_back(std::make_unique<workload::FileReadTask>(
          sys.adapter.get(), pop->ids[u], pop->sizes[u]));
    }
    const double t0 = sys.clock_ms();
    auto finish =
        workload::RunConcurrently(tasks, [&] { return sys.clock_ms(); });
    if (!finish.ok()) std::abort();
    double sum = 0;
    for (double f : *finish) sum += f - t0;
    state.counters["mean_access_s"] =
        sum / static_cast<double>(users) / 1e3;
  }
}

// Dispatcher sweep (the multi-user serving path): `users` real threads
// each read their own pre-warmed 16-block file through RequestDispatcher
// sessions, so concurrent requests group-commit into cross-file
// level-scan groups of up to B = 32. The per-request baseline serves the
// identical request multiset one request at a time (round-robin over
// users, the RunConcurrently interleave), and a blocking-re-order twin
// of the dispatcher (the PR 4 configuration) isolates what the
// deamortized double-buffered re-orders buy. All times are virtual disk
// ms; requests/sec is requests per virtual second.
void RunDispatchSweep(benchmark::State& state, uint64_t users) {
  constexpr uint64_t kFileBlocks = 16;
  // Store B = dispatcher max_batch: groups can hold every user's
  // outstanding request up to 128 (the agent-buffer envelope of the
  // Figure 12 sweep), so batch fill scales with the population.
  const uint64_t kBuffer = std::min<uint64_t>(128, std::max<uint64_t>(32, users));
  for (auto _ : state) {
    const uint64_t requests = users * kFileBlocks;

    // Per-request serving baseline on a twin system.
    auto serial =
        MakeObliviousSystem(users, kFileBlocks, 9000 + users, kBuffer, true);
    const size_t payload = serial.core->payload_size();
    const auto serial_before = serial.agent->store().stats();
    const double serial_t0 = serial.clock_ms();
    for (uint64_t block = 0; block < kFileBlocks; ++block) {
      for (uint64_t u = 0; u < users; ++u) {
        if (!serial.agent->Read(serial.files[u], block * payload, payload)
                 .ok()) {
          std::abort();
        }
      }
    }
    const double serial_ms = serial.clock_ms() - serial_t0;
    const auto sst = serial.agent->store().stats();

    // Blocking-re-order dispatcher (the PR 4 baseline) and the
    // deamortized dispatcher on identically seeded twins.
    const auto read_task = [payload](agent::RequestDispatcher::Session& s,
                                     agent::ObliviousAgent::FileId file,
                                     uint64_t) -> Status {
      for (uint64_t block = 0; block < kFileBlocks; ++block) {
        STEGHIDE_RETURN_IF_ERROR(
            s.Read(file, block * payload, payload).status());
      }
      return Status::OK();
    };
    const DispatchRun blocking =
        RunDispatchedServing(users, kFileBlocks, 9000 + users, kBuffer,
                             /*deamortize=*/false, read_task);
    // Only the measured (deamortized) configuration gets the process
    // observability sinks: the serial/blocking twins stay uninstrumented
    // so the exported timeline/metrics describe one system.
    const DispatchRun deamort = RunDispatchedServing(
        users, kFileBlocks, 9000 + users, kBuffer,
        /*deamortize=*/true, read_task, /*cache_shards=*/0, GlobalMetrics(),
        GlobalTrace());

    state.counters["users"] = static_cast<double>(users);
    state.counters["requests"] = static_cast<double>(requests);
    // Headline counters describe the deamortized dispatcher (the serving
    // configuration); the blocking twin keeps its own prefixed set.
    state.counters["virtual_ms"] = deamort.virtual_ms;
    state.counters["serial_virtual_ms"] = serial_ms;
    state.counters["blocking_virtual_ms"] = blocking.virtual_ms;
    state.counters["requests_per_vsec"] =
        static_cast<double>(requests) / (deamort.virtual_ms / 1e3);
    state.counters["serial_requests_per_vsec"] =
        static_cast<double>(requests) / (serial_ms / 1e3);
    state.counters["blocking_requests_per_vsec"] =
        static_cast<double>(requests) / (blocking.virtual_ms / 1e3);
    state.counters["speedup_vs_serial"] = serial_ms / deamort.virtual_ms;
    // The blocking-vs-deamortized ratios only mean something when the
    // twin really deamortized; shallow hierarchies (small user counts)
    // fall back to the blocking schedule, and emitting a ratio of two
    // blocking runs would just gate layout noise.
    if (deamort.deamortized) {
      state.counters["speedup_vs_blocking_reorder"] =
          blocking.virtual_ms / deamort.virtual_ms;
    }
    state.counters["mean_batch_fill"] = deamort.dstats.MeanFill();
    state.counters["max_batch_fill"] =
        static_cast<double>(deamort.dstats.max_fill);
    state.counters["scan_passes"] = static_cast<double>(deamort.scan_passes);
    state.counters["serial_scan_passes"] =
        static_cast<double>(sst.scan_passes - serial_before.scan_passes);
    state.counters["p50_latency_ms"] = deamort.dstats.p50_latency_ms;
    state.counters["p90_latency_ms"] = deamort.dstats.p90_latency_ms;
    state.counters["p99_latency_ms"] = deamort.dstats.p99_latency_ms;
    state.counters["blocking_p50_latency_ms"] = blocking.dstats.p50_latency_ms;
    state.counters["blocking_p99_latency_ms"] = blocking.dstats.p99_latency_ms;
    if (deamort.deamortized && deamort.dstats.p99_latency_ms > 0) {
      state.counters["p99_improvement_vs_blocking"] =
          blocking.dstats.p99_latency_ms / deamort.dstats.p99_latency_ms;
    }
    // Retrieval vs re-order split (Figure 12(b) axis) and the new
    // deamortization counters: per-level re-order time, incremental step
    // count, and the longest serving stall attributable to re-orders.
    state.counters["retrieve_ms"] = deamort.retrieve_ms;
    state.counters["sort_ms"] = deamort.sort_ms;
    state.counters["blocking_retrieve_ms"] = blocking.retrieve_ms;
    state.counters["blocking_sort_ms"] = blocking.sort_ms;
    state.counters["serial_retrieve_ms"] =
        sst.retrieve_ms - serial_before.retrieve_ms;
    state.counters["serial_sort_ms"] = sst.sort_ms - serial_before.sort_ms;
    state.counters["max_stall_ms"] = deamort.max_stall_ms;
    state.counters["stall_p99_ms"] = deamort.stall_p99_ms;
    state.counters["blocking_max_stall_ms"] = blocking.max_stall_ms;
    state.counters["blocking_stall_p99_ms"] = blocking.stall_p99_ms;
    state.counters["queue_depth_p99"] = deamort.queue_depth_p99;
    // Crypto cost of the serving phase: wall time spent decrypting scan
    // probes (off the virtual disk clock) and the batched traffic that
    // the hardware path amortizes.
    state.counters["crypto_wall_ms"] = deamort.crypto_wall_ms;
    state.counters["crypto_mb"] =
        static_cast<double>(deamort.crypto_bytes) / (1024.0 * 1024.0);
    state.counters["crypto_batches"] =
        static_cast<double>(deamort.crypto_batches);
    state.counters["reorder_steps"] = deamort.reorder_steps;
    for (size_t l = 0; l < deamort.reorder_ms.size(); ++l) {
      state.counters["reorder_ms_l" + std::to_string(l + 1)] =
          deamort.reorder_ms[l];
    }
  }
}

// Sharded-volume sweep: the deamortized dispatcher serving path with the
// oblivious cache striped across K spindles (ShardedBlockDevice over K
// independent DiskModel clocks). Virtual time on the cache side is the
// parallel clock — each call costs the slowest shard it touches —
// so the counters directly measure what disk parallelism buys the
// serving funnel. K=1 runs the same sharded machinery as the scaling
// baseline; speedup_vs_1shard is this run's throughput over that
// baseline's (computed once per user count and reused).
void RunShardSweep(benchmark::State& state, size_t shards, uint64_t users) {
  constexpr uint64_t kFileBlocks = 16;
  const uint64_t kBuffer =
      std::min<uint64_t>(128, std::max<uint64_t>(32, users));
  // Payload size is a pure function of the 4 KB block size shared by
  // every device in the sweep.
  const size_t payload = stegfs::BlockCodec(4096).payload_size();
  for (auto _ : state) {
    const uint64_t requests = users * kFileBlocks;
    const auto read_task = [payload](agent::RequestDispatcher::Session& s,
                                     agent::ObliviousAgent::FileId file,
                                     uint64_t) -> Status {
      for (uint64_t block = 0; block < kFileBlocks; ++block) {
        STEGHIDE_RETURN_IF_ERROR(
            s.Read(file, block * payload, payload).status());
      }
      return Status::OK();
    };

    // One-shard scaling baseline, computed lazily and shared across the
    // K registrations of the same user count (the benchmarks run
    // sequentially in one process).
    static std::map<uint64_t, double> one_shard_ms;
    if (one_shard_ms.find(users) == one_shard_ms.end()) {
      const DispatchRun base =
          RunDispatchedServing(users, kFileBlocks, 9500 + users, kBuffer,
                               /*deamortize=*/true, read_task,
                               /*cache_shards=*/1);
      one_shard_ms[users] = base.virtual_ms;
    }

    const DispatchRun run =
        RunDispatchedServing(users, kFileBlocks, 9500 + users, kBuffer,
                             /*deamortize=*/true, read_task,
                             /*cache_shards=*/shards);

    state.counters["users"] = static_cast<double>(users);
    state.counters["shards"] = static_cast<double>(run.io_shards);
    state.counters["shadow_separated"] = run.shadow_separated ? 1.0 : 0.0;
    state.counters["virtual_ms"] = run.virtual_ms;
    state.counters["requests_per_vsec"] =
        static_cast<double>(requests) / (run.virtual_ms / 1e3);
    state.counters["speedup_vs_1shard"] =
        one_shard_ms[users] / run.virtual_ms;
    state.counters["mean_batch_fill"] = run.dstats.MeanFill();
    state.counters["scan_passes"] = static_cast<double>(run.scan_passes);
    state.counters["p50_latency_ms"] = run.dstats.p50_latency_ms;
    state.counters["p99_latency_ms"] = run.dstats.p99_latency_ms;
    state.counters["retrieve_ms"] = run.retrieve_ms;
    state.counters["sort_ms"] = run.sort_ms;
    state.counters["max_stall_ms"] = run.max_stall_ms;
    state.counters["crypto_wall_ms"] = run.crypto_wall_ms;
    state.counters["crypto_mb"] =
        static_cast<double>(run.crypto_bytes) / (1024.0 * 1024.0);
    state.counters["crypto_batches"] =
        static_cast<double>(run.crypto_batches);
  }
}

// Degraded-mode sweep: the Fig10bShard serving path (K cache spindles,
// R = 2 strict mirrored replicas per shard) with one replica of shard 0
// killed at the half-way mark, plus a mild transient-EIO read plan on
// the surviving replica while the shard is down to one mirror. The
// acceptance bars are failed_requests == 0 (every request after the
// kill is served by failover / degraded writes / bounded retries) and
// quorum_stale_reads == write_quorum_failures == 0, which every mirror
// reports. After the serving phase the dead replica is revived and the
// repair sweep re-mirrors it; repair cost is reported in virtual ms
// alongside the replication counters.
void RunDegradedSweep(benchmark::State& state, size_t shards,
                      uint64_t users) {
  constexpr uint64_t kFileBlocks = 16;
  const uint64_t kBuffer =
      std::min<uint64_t>(128, std::max<uint64_t>(32, users));
  const size_t payload = stegfs::BlockCodec(4096).payload_size();
  for (auto _ : state) {
    const uint64_t requests = users * kFileBlocks;

    // Only the surviving replica of the shard we kill carries a fault
    // plan: a sparse transient read error (one op in 197, reads only).
    // While both mirrors are healthy those fires are absorbed by
    // failover; once replica 1 is dead the mirror re-reads the failed
    // batch block by block from the survivor, so they no longer reach
    // the store. Its retry budget stays armed all the same
    // (StoreRetryTest in fault_device_test pins that path).
    const auto fault_plan = [](size_t shard,
                               size_t replica) -> storage::FaultPlan {
      storage::FaultPlan plan;
      if (shard == 0 && replica == 0) {
        plan.seed = 77;
        storage::FaultSpec flaky;
        flaky.kind = storage::FaultSpec::Kind::kTransientError;
        flaky.ops = storage::FaultSpec::OpFilter::kRead;
        flaky.every_nth = 197;
        plan.faults.push_back(flaky);
      }
      return plan;
    };
    storage::RetryPolicy retry;
    // Generous budget: a vectored re-drive can consume several of the
    // surviving replica's scheduled fires before one attempt clears.
    retry.max_attempts = 12;
    storage::ReplicationOptions replication;
    // Transient hiccups on the last healthy mirror must stay in
    // rotation; only the scripted death should cost a replica.
    replication.quarantine_after = 64;

    auto sys = MakeObliviousSystem(
        users, kFileBlocks, 9700 + users, kBuffer, true,
        /*deamortize=*/true, shards, GlobalMetrics(), GlobalTrace(),
        /*cache_replicas=*/2, fault_plan, retry, replication);

    agent::DispatcherOptions options;
    options.max_batch = kBuffer;
    options.commit_window = std::chrono::milliseconds(50);
    options.clock_fn = [&sys] { return sys.clock_ms(); };
    options.registry = GlobalMetrics();
    options.trace = GlobalTrace();
    // The repair pump rides the dispatcher's idle-maintenance seam; it
    // is a no-op until the dead replica is re-admitted below.
    options.extra_maintenance =
        [&sys](uint64_t budget) -> Result<bool> {
      if (!sys.cache_volumes->repair_pending()) return false;
      return sys.cache_volumes->PumpRepair(budget);
    };
    sys.agent->store().ResetStats();
    if (obs::TraceLog* trace = GlobalTrace(); trace != nullptr) {
      trace->Clear();
      trace->set_enabled(true);
    }

    const double t0 = sys.clock_ms();
    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> failed{0};
    double kill_ms = 0;
    {
      agent::RequestDispatcher dispatcher(sys.agent.get(), options);
      std::vector<std::unique_ptr<agent::RequestDispatcher::Session>>
          sessions;
      for (uint64_t u = 0; u < users; ++u) {
        sessions.push_back(dispatcher.OpenSession());
      }
      std::vector<std::function<Status()>> tasks;
      for (uint64_t u = 0; u < users; ++u) {
        tasks.push_back([&, u]() -> Status {
          for (uint64_t block = 0; block < kFileBlocks; ++block) {
            if (!sessions[u]
                     ->Read(sys.files[u], block * payload, payload)
                     .ok()) {
              failed.fetch_add(1, std::memory_order_relaxed);
            }
            // Pull the plug on shard 0's second mirror half-way through
            // the request stream (Kill() is thread-safe by contract).
            if (done.fetch_add(1, std::memory_order_relaxed) + 1 ==
                requests / 2) {
              kill_ms = sys.clock_ms() - t0;
              sys.cache_volumes->KillReplica(0, 1);
            }
          }
          return Status::OK();
        });
      }
      for (const Status& status :
           workload::RunOnThreads(std::move(tasks))) {
        if (!status.ok()) std::abort();
      }
      dispatcher.Stop();
    }
    // Drain the re-order tail (the mirror and the retry budget absorb
    // any remaining transient fires on the degraded shard).
    bool more = true;
    while (more) {
      if (!sys.agent->store().StepReorder(1u << 20, &more).ok()) {
        std::abort();
      }
    }
    const double serving_ms = sys.clock_ms() - t0;

    // Fail back: revive the dead replica and re-mirror it. Transient
    // fires on the repair source surface as failed pump slices; the
    // sweep resumes where it left off, so we just re-drive.
    uint64_t repair_retries = 0;
    const double repair_t0 = sys.clock_ms();
    if (!sys.cache_volumes->ReviveAndRepair(0, 1).ok()) std::abort();
    for (;;) {
      auto pending = sys.cache_volumes->PumpRepair(64);
      if (!pending.ok()) {
        ++repair_retries;
        continue;
      }
      if (!*pending) break;
    }
    const double repair_ms = sys.clock_ms() - repair_t0;
    const auto rstats = sys.cache_volumes->replicated(0)->stats();
    const auto iostats = sys.agent->store().io_stats();
    uint64_t injected = 0;
    for (size_t k = 0; k < shards; ++k) {
      for (size_t r = 0; r < 2; ++r) {
        injected += sys.cache_volumes->fault(k, r)->stats().injected_errors;
      }
    }

    state.counters["users"] = static_cast<double>(users);
    state.counters["shards"] = static_cast<double>(shards);
    state.counters["replicas"] = 2.0;
    state.counters["requests"] = static_cast<double>(requests);
    state.counters["failed_requests"] =
        static_cast<double>(failed.load());
    state.counters["virtual_ms"] = serving_ms;
    state.counters["requests_per_vsec"] =
        static_cast<double>(requests) / (serving_ms / 1e3);
    state.counters["kill_ms"] = kill_ms;
    state.counters["quorum_stale_reads"] =
        static_cast<double>(rstats.quorum_stale_reads);
    state.counters["write_quorum_failures"] =
        static_cast<double>(rstats.write_quorum_failures);
    state.counters["injected_errors"] = static_cast<double>(injected);
    state.counters["io_retries"] = static_cast<double>(iostats.retries);
    state.counters["io_retry_exhausted"] =
        static_cast<double>(iostats.retry_exhausted);
    state.counters["failovers"] = static_cast<double>(rstats.failovers);
    state.counters["quarantines"] =
        static_cast<double>(rstats.quarantines);
    state.counters["failover_ms_max"] = rstats.failover_ms_max;
    state.counters["failover_ms_mean"] = rstats.failover_ms_mean;
    state.counters["repair_ms"] = repair_ms;
    state.counters["repair_blocks"] =
        static_cast<double>(rstats.repair_blocks);
    state.counters["repairs_completed"] =
        static_cast<double>(rstats.repairs_completed);
    state.counters["repair_retries"] =
        static_cast<double>(repair_retries);
    if (obs::TraceLog* trace = GlobalTrace(); trace != nullptr) {
      trace->set_enabled(false);
    }
    if (obs::Registry* registry = GlobalMetrics(); registry != nullptr) {
      registry->Latch();
    }
  }
}

// Distributed-volume sweep: the Fig10bDegraded serving path with shard
// 0's second mirror served over the loopback block-RPC transport and
// the mirror running with `quorum` (W = R = 1, so a replica that misses
// writes lags instead of being quarantined). Half-way through the
// request stream the remote link is partitioned: every RPC to it fails
// fast, writes keep succeeding on the local replica, and reads only
// ever serve blocks a replica holds current. The acceptance bars are
// failed_requests == 0 AND quorum_stale_reads == 0 (both hard-gated by
// bench_diff.py). After the serving phase the link heals, the endpoint
// restarts, and the repair sweep re-converges the remote mirror; RPC
// and transport counters ride along.
void RunRemoteSweep(benchmark::State& state, size_t shards,
                    uint64_t users) {
  constexpr uint64_t kFileBlocks = 16;
  const uint64_t kBuffer =
      std::min<uint64_t>(128, std::max<uint64_t>(32, users));
  const size_t payload = stegfs::BlockCodec(4096).payload_size();
  for (auto _ : state) {
    const uint64_t requests = users * kFileBlocks;

    storage::RetryPolicy retry;
    retry.max_attempts = 12;
    storage::ReplicationOptions replication;
    replication.quorum = true;
    replication.write_quorum = 1;
    replication.read_quorum = 1;
    // The partitioned remote fails fast on every touch; keep it lagging
    // long enough to exercise degraded quorum serving, but let sustained
    // failures bench it so serving stops paying the fail-fast errors.
    replication.quarantine_after = 64;
    storage::remote::RemoteDeviceOptions remote_options;
    remote_options.rpc_deadline_ms = 5000.0;
    remote_options.retry.max_attempts = 2;

    auto sys = MakeObliviousSystem(
        users, kFileBlocks, 9800 + users, kBuffer, true,
        /*deamortize=*/true, shards, GlobalMetrics(), GlobalTrace(),
        /*cache_replicas=*/2,
        [](size_t, size_t) { return storage::FaultPlan{}; }, retry,
        replication,
        /*cache_remote=*/[](size_t k, size_t r) { return k == 0 && r == 1; },
        /*cache_transport_fault_plan=*/nullptr, remote_options);

    agent::DispatcherOptions options;
    options.max_batch = kBuffer;
    options.commit_window = std::chrono::milliseconds(50);
    options.clock_fn = [&sys] { return sys.clock_ms(); };
    options.registry = GlobalMetrics();
    options.trace = GlobalTrace();
    options.extra_maintenance =
        [&sys](uint64_t budget) -> Result<bool> {
      if (!sys.cache_volumes->repair_pending()) return false;
      return sys.cache_volumes->PumpRepair(budget);
    };
    sys.agent->store().ResetStats();
    if (obs::TraceLog* trace = GlobalTrace(); trace != nullptr) {
      trace->Clear();
      trace->set_enabled(true);
    }

    const double t0 = sys.clock_ms();
    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> failed{0};
    double partition_ms = 0;
    {
      agent::RequestDispatcher dispatcher(sys.agent.get(), options);
      std::vector<std::unique_ptr<agent::RequestDispatcher::Session>>
          sessions;
      for (uint64_t u = 0; u < users; ++u) {
        sessions.push_back(dispatcher.OpenSession());
      }
      std::vector<std::function<Status()>> tasks;
      for (uint64_t u = 0; u < users; ++u) {
        tasks.push_back([&, u]() -> Status {
          for (uint64_t block = 0; block < kFileBlocks; ++block) {
            if (!sessions[u]
                     ->Read(sys.files[u], block * payload, payload)
                     .ok()) {
              failed.fetch_add(1, std::memory_order_relaxed);
            }
            // Black-hole the remote link half-way through the request
            // stream (Partition() is thread-safe by contract).
            if (done.fetch_add(1, std::memory_order_relaxed) + 1 ==
                requests / 2) {
              partition_ms = sys.clock_ms() - t0;
              sys.cache_volumes->PartitionReplica(0, 1);
            }
          }
          return Status::OK();
        });
      }
      for (const Status& status :
           workload::RunOnThreads(std::move(tasks))) {
        if (!status.ok()) std::abort();
      }
      dispatcher.Stop();
    }
    bool more = true;
    while (more) {
      if (!sys.agent->store().StepReorder(1u << 20, &more).ok()) {
        std::abort();
      }
    }
    const double serving_ms = sys.clock_ms() - t0;

    // Reconnect: heal the link (ReviveAndRepair does), restart anything
    // crashed, and re-converge the remote mirror byte-identically.
    const double repair_t0 = sys.clock_ms();
    if (!sys.cache_volumes->ReviveAndRepair(0, 1).ok()) std::abort();
    for (;;) {
      auto pending = sys.cache_volumes->PumpRepair(64);
      if (!pending.ok()) std::abort();
      if (!*pending) break;
    }
    const double repair_ms = sys.clock_ms() - repair_t0;
    const auto rstats = sys.cache_volumes->replicated(0)->stats();
    const auto iostats = sys.agent->store().io_stats();
    const auto remote_stats =
        sys.cache_volumes->remote_device(0, 1)->stats();
    const auto transport_stats =
        sys.cache_volumes->transport_fault(0, 1)->stats();

    state.counters["users"] = static_cast<double>(users);
    state.counters["shards"] = static_cast<double>(shards);
    state.counters["replicas"] = 2.0;
    state.counters["requests"] = static_cast<double>(requests);
    state.counters["failed_requests"] =
        static_cast<double>(failed.load());
    state.counters["quorum_stale_reads"] =
        static_cast<double>(rstats.quorum_stale_reads);
    state.counters["write_quorum_failures"] =
        static_cast<double>(rstats.write_quorum_failures);
    state.counters["quorum_widened"] =
        static_cast<double>(rstats.quorum_widened);
    state.counters["read_repairs"] =
        static_cast<double>(rstats.read_repairs);
    state.counters["virtual_ms"] = serving_ms;
    state.counters["requests_per_vsec"] =
        static_cast<double>(requests) / (serving_ms / 1e3);
    state.counters["partition_ms"] = partition_ms;
    state.counters["io_retries"] = static_cast<double>(iostats.retries);
    state.counters["io_retry_exhausted"] =
        static_cast<double>(iostats.retry_exhausted);
    state.counters["failovers"] = static_cast<double>(rstats.failovers);
    state.counters["quarantines"] =
        static_cast<double>(rstats.quarantines);
    state.counters["failover_ms_max"] = rstats.failover_ms_max;
    state.counters["failover_ms_p99"] = rstats.failover_ms_p99;
    state.counters["rpcs"] = static_cast<double>(remote_stats.rpcs);
    state.counters["rpc_retries"] =
        static_cast<double>(remote_stats.rpc_retries);
    state.counters["rpc_timeouts"] =
        static_cast<double>(remote_stats.timeouts);
    state.counters["reconnects"] =
        static_cast<double>(remote_stats.reconnects);
    state.counters["partitioned_frames"] =
        static_cast<double>(transport_stats.partitioned_frames);
    state.counters["repair_ms"] = repair_ms;
    state.counters["repair_blocks"] =
        static_cast<double>(rstats.repair_blocks);
    state.counters["repairs_completed"] =
        static_cast<double>(rstats.repairs_completed);
    if (obs::TraceLog* trace = GlobalTrace(); trace != nullptr) {
      trace->set_enabled(false);
    }
    if (obs::Registry* registry = GlobalMetrics(); registry != nullptr) {
      registry->Latch();
    }
  }
}

}  // namespace
}  // namespace steghide::bench

int main(int argc, char** argv) {
  using namespace steghide::bench;
  for (SystemKind kind : kAllSystems) {
    for (uint64_t mb : {2, 4, 6, 8, 10}) {
      benchmark::RegisterBenchmark(
          (std::string("Fig10a/") + SystemName(kind) +
           "/file_mb:" + std::to_string(mb)).c_str(),
          [kind, mb](benchmark::State& s) { RunFileSizeSweep(s, kind, mb); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  for (SystemKind kind : kAllSystems) {
    for (uint64_t users : {1, 2, 4, 8, 16, 32}) {
      benchmark::RegisterBenchmark(
          (std::string("Fig10b/") + SystemName(kind) +
           "/users:" + std::to_string(users)).c_str(),
          [kind, users](benchmark::State& s) {
            RunConcurrencySweep(s, kind, users);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  // Multi-threaded dispatcher sweep: user counts past the paper's 32,
  // dispatched vs per-request serving on the oblivious system.
  for (uint64_t users : {8, 32, 128, 256}) {
    benchmark::RegisterBenchmark(
        ("Fig10bDispatch/users:" + std::to_string(users)).c_str(),
        [users](benchmark::State& s) { RunDispatchSweep(s, users); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // Sharded-volume sweep: same serving path, cache striped over K
  // spindles; the acceptance bar is >=2.5x requests_per_vsec at K=4.
  for (size_t shards : {1, 2, 4, 8}) {
    benchmark::RegisterBenchmark(
        ("Fig10bShard/shards:" + std::to_string(shards) + "/users:256")
            .c_str(),
        [shards](benchmark::State& s) { RunShardSweep(s, shards, 256); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // Degraded-mode serving: one replica of one shard dies mid-run; the
  // acceptance bars are failed_requests == 0, quorum_stale_reads == 0
  // and write_quorum_failures == 0 (gated by bench_diff.py).
  benchmark::RegisterBenchmark(
      "Fig10bDegraded/shards:4/users:256",
      [](benchmark::State& s) { RunDegradedSweep(s, 4, 256); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  // Distributed volumes: one mirror behind the loopback block-RPC
  // transport, quorum serving, a partition injected mid-run. The
  // acceptance bars are failed_requests == 0 and quorum_stale_reads == 0
  // (both gated by bench_diff.py).
  benchmark::RegisterBenchmark(
      "Fig10bRemote/shards:4/users:256",
      [](benchmark::State& s) { RunRemoteSweep(s, 4, 256); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  return RunBenchmarks(argc, argv);
}
