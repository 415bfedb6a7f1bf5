#ifndef STEGHIDE_BENCH_COMMON_H_
#define STEGHIDE_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agent/dispatch/request_dispatcher.h"
#include "agent/nonvolatile_agent.h"
#include "obs/metrics.h"
#include "stegfs/block_codec.h"
#include "obs/snapshotter.h"
#include "obs/trace_log.h"
#include "agent/oblivious_agent.h"
#include "agent/volatile_agent.h"
#include "workload/concurrency.h"
#include "baseline/plain_fs.h"
#include "baseline/stegfs2003.h"
#include "storage/mem_block_device.h"
#include "storage/retry_device.h"
#include "storage/sim_device.h"
#include "storage/volume_set.h"
#include "workload/adapters.h"

namespace steghide::bench {

/// The five systems of Table 3.
enum class SystemKind {
  kStegHide,      // Construction 2, volatile agent (implemented system)
  kStegHideStar,  // Construction 1, non-volatile agent
  kStegFs2003,    // previous StegFS [12]
  kCleanDisk,     // fresh native FS, contiguous files
  kFragDisk,      // aged native FS, 8-block fragments
};

inline const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kStegHide:
      return "StegHide";
    case SystemKind::kStegHideStar:
      return "StegHide*";
    case SystemKind::kStegFs2003:
      return "StegFS";
    case SystemKind::kCleanDisk:
      return "CleanDisk";
    case SystemKind::kFragDisk:
      return "FragDisk";
  }
  return "?";
}

inline constexpr SystemKind kAllSystems[] = {
    SystemKind::kStegHide, SystemKind::kStegHideStar, SystemKind::kStegFs2003,
    SystemKind::kCleanDisk, SystemKind::kFragDisk};

/// One fully wired system over a simulated disk. All benchmark times are
/// read from sim->clock_ms() (virtual milliseconds), never from wall
/// time — see README, "Virtual disk clock and N/B scaling".
struct SystemUnderTest {
  std::unique_ptr<storage::MemBlockDevice> mem;
  std::unique_ptr<storage::SimBlockDevice> sim;
  std::unique_ptr<stegfs::StegFsCore> core;
  std::unique_ptr<agent::VolatileAgent> vagent;
  std::unique_ptr<agent::NonVolatileAgent> nvagent;
  std::unique_ptr<baseline::StegFs2003> steg2003;
  std::unique_ptr<baseline::PlainFs> plain;
  std::unique_ptr<workload::FsAdapter> adapter;

  double clock_ms() const { return sim->clock_ms(); }
};

/// Builds a formatted system. For the volatile agent (`kStegHide`) a
/// workload user "bench" is logged in with one dummy file of
/// `steghide_dummy_blocks` blocks — its relocation pool. Other systems
/// ignore that parameter.
inline SystemUnderTest MakeSystem(SystemKind kind, uint64_t volume_blocks,
                                  uint64_t seed,
                                  uint64_t steghide_dummy_blocks = 4096) {
  SystemUnderTest sys;
  sys.mem = std::make_unique<storage::MemBlockDevice>(volume_blocks, 4096);
  sys.sim = std::make_unique<storage::SimBlockDevice>(
      sys.mem.get(), storage::DiskModelParams{});

  switch (kind) {
    case SystemKind::kCleanDisk:
      sys.plain = std::make_unique<baseline::PlainFs>(
          sys.sim.get(), baseline::PlainFs::CleanDisk());
      sys.adapter = std::make_unique<workload::PlainFsAdapter>(
          sys.plain.get(), "CleanDisk");
      return sys;
    case SystemKind::kFragDisk:
      sys.plain = std::make_unique<baseline::PlainFs>(
          sys.sim.get(), baseline::PlainFs::FragDisk());
      sys.adapter = std::make_unique<workload::PlainFsAdapter>(
          sys.plain.get(), "FragDisk");
      return sys;
    default:
      break;
  }

  sys.core = std::make_unique<stegfs::StegFsCore>(
      sys.sim.get(), stegfs::StegFsOptions{seed, true});
  if (!sys.core->Format().ok()) std::abort();
  // Formatting is out of scope for every measurement.
  sys.sim->ResetStats();

  switch (kind) {
    case SystemKind::kStegHide: {
      sys.vagent = std::make_unique<agent::VolatileAgent>(sys.core.get());
      // Dummy files are capped at the maximum file size; provision the
      // pool as several files, as a real user population would.
      constexpr uint64_t kChunk = 8192;
      for (uint64_t left = steghide_dummy_blocks; left > 0;) {
        const uint64_t take = std::min(left, kChunk);
        if (!sys.vagent->CreateDummyFile("bench", take).ok()) std::abort();
        left -= take;
      }
      sys.adapter = std::make_unique<workload::VolatileAgentAdapter>(
          sys.vagent.get(), "bench");
      break;
    }
    case SystemKind::kStegHideStar: {
      sys.nvagent = std::make_unique<agent::NonVolatileAgent>(
          sys.core.get(), agent::NonVolatileAgent::Options{});
      sys.adapter = std::make_unique<workload::NonVolatileAgentAdapter>(
          sys.nvagent.get());
      break;
    }
    case SystemKind::kStegFs2003: {
      sys.steg2003 = std::make_unique<baseline::StegFs2003>(sys.core.get());
      sys.adapter =
          std::make_unique<workload::StegFs2003Adapter>(sys.steg2003.get());
      break;
    }
    default:
      std::abort();
  }
  return sys;
}

/// The full Section-5 system (StegFS partition + oblivious cache) on two
/// simulated spindles, for the multi-user dispatcher sweeps. Virtual
/// time is reported as the *sum* of both disks' clocks: every I/O is
/// issued by one thread, so the sum equals the busy time of the
/// single-device layout the paper also permits (both partitions on one
/// disk).
struct ObliviousSystemUnderTest {
  std::unique_ptr<storage::MemBlockDevice> steg_mem;
  std::unique_ptr<storage::MemBlockDevice> cache_mem;
  std::unique_ptr<storage::SimBlockDevice> steg_sim;
  std::unique_ptr<storage::SimBlockDevice> cache_sim;
  /// Sharded cache volume (cache_shards >= 1): K Mem+Sim stacks striped
  /// by a ShardedBlockDevice, replacing cache_mem/cache_sim. Its
  /// parallel clock (max per-shard delta of each call) is what the
  /// cache contributes to clock_ms().
  std::unique_ptr<storage::VolumeSet> cache_volumes;
  std::unique_ptr<stegfs::StegFsCore> core;
  std::unique_ptr<agent::ObliviousAgent> agent;
  std::vector<agent::ObliviousAgent::FileId> files;  // one per user
  /// Keeps the process-wide crypto instruments (crypto.bytes/batches,
  /// dispatch gauges) registered while an instrumented run is alive.
  obs::Registration crypto_metrics;

  double clock_ms() const {
    return steg_sim->clock_ms() +
           (cache_volumes ? cache_volumes->clock_ms()
                          : cache_sim->clock_ms());
  }
};

/// Builds a formatted oblivious system serving `users` files of
/// `file_blocks` payload blocks each (content: block index), with the
/// oblivious cache sized to hold every block and the store buffer set to
/// `buffer_blocks` (= the dispatcher's max group size). When `prewarm`,
/// every file is read once so the measured phase serves pure level-scan
/// traffic (no first-touch miss-fills). With `deamortize`, the cache
/// device grows a shadow mirror and re-orders run as incremental
/// double-buffered chains (the dispatcher pumps them in idle gaps).
/// `registry`/`trace` (both optional) wire the whole funnel's
/// observability: the store, agent and reader register their
/// instruments, the simulated devices export per-spindle utilization
/// ("steg.*", "cache.*" / "cache.shard<k>.*"), a sharded cache traces
/// each shard's part of every vectored call on an "io/shard<k>" lane,
/// and the trace log's virtual clock is bound to this system's summed
/// disk clocks.
/// `cache_replicas`/`cache_fault_plan`/`replication` (sharded cache
/// only) mirror every cache shard R ways behind a ReplicatedBlockDevice
/// and script per-(shard, replica) fault injection; `io_retry` arms the
/// store's bounded retry budget so transient device errors
/// that survive the replica layer (e.g. a degraded shard's last healthy
/// replica hiccuping) are re-driven instead of failing the request.
/// `cache_remote` marks cache replicas served over the loopback
/// block-RPC transport (their local stack moves behind a server thread
/// and the mirror talks to a RemoteBlockDevice client);
/// `cache_transport_fault_plan` scripts partition/delay/drop faults on
/// those links, and `remote_options` sets the client RPC deadline and
/// reconnect budget.
inline ObliviousSystemUnderTest MakeObliviousSystem(
    uint64_t users, uint64_t file_blocks, uint64_t seed,
    uint64_t buffer_blocks, bool prewarm, bool deamortize = false,
    size_t cache_shards = 0, obs::Registry* registry = nullptr,
    obs::TraceLog* trace = nullptr, size_t cache_replicas = 1,
    std::function<storage::FaultPlan(size_t, size_t)> cache_fault_plan =
        nullptr,
    std::optional<storage::RetryPolicy> io_retry = std::nullopt,
    storage::ReplicationOptions replication = {},
    std::function<bool(size_t, size_t)> cache_remote = nullptr,
    std::function<storage::FaultPlan(size_t, size_t)>
        cache_transport_fault_plan = nullptr,
    storage::remote::RemoteDeviceOptions remote_options = {}) {
  ObliviousSystemUnderTest sys;

  uint64_t capacity = 2 * buffer_blocks;
  while (capacity < users * file_blocks) capacity *= 2;
  const uint64_t hierarchy = 2 * capacity - 2 * buffer_blocks;

  const uint64_t steg_blocks = users * file_blocks * 2 + 8192;
  sys.steg_mem = std::make_unique<storage::MemBlockDevice>(steg_blocks, 4096);
  sys.steg_sim = std::make_unique<storage::SimBlockDevice>(
      sys.steg_mem.get(), storage::DiskModelParams{});

  // Shadow phase shift: under the g % K stripe, offsetting the shadow
  // mirror by one block puts every slot's ping-pong twin on a different
  // spindle than its primary (hierarchy is a power-of-two multiple of
  // the shard counts swept, so the phase difference is 1 mod K).
  const uint64_t shadow_shift = cache_shards > 1 ? 1 : 0;
  const uint64_t cache_blocks = hierarchy + capacity +
                                (deamortize ? hierarchy : 0) +
                                2 * shadow_shift + 16;
  storage::BlockDevice* cache_device = nullptr;
  if (cache_shards >= 1) {
    storage::VolumeSet::Options vopts;
    vopts.shards = cache_shards;
    vopts.replicas = cache_replicas;
    vopts.total_blocks = cache_blocks;
    vopts.fault_plan = std::move(cache_fault_plan);
    vopts.replication = replication;
    vopts.remote = std::move(cache_remote);
    vopts.transport_fault_plan = std::move(cache_transport_fault_plan);
    vopts.remote_options = remote_options;
    sys.cache_volumes = std::make_unique<storage::VolumeSet>(vopts);
    cache_device = &sys.cache_volumes->device();
  } else {
    sys.cache_mem =
        std::make_unique<storage::MemBlockDevice>(cache_blocks, 4096);
    sys.cache_sim = std::make_unique<storage::SimBlockDevice>(
        sys.cache_mem.get(), storage::DiskModelParams{});
    cache_device = sys.cache_sim.get();
  }

  sys.core = std::make_unique<stegfs::StegFsCore>(
      sys.steg_sim.get(), stegfs::StegFsOptions{seed, true});
  if (!sys.core->Format().ok()) std::abort();

  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = buffer_blocks;
  opts.capacity_blocks = capacity;
  opts.partition_base = 0;
  // Layout: [hierarchy][shadow mirror][scratch] — keeping each level's
  // shadow one hierarchy-length away (instead of behind scratch) trims
  // the mixed-epoch seek spread of double-buffered serving.
  opts.shadow_base = hierarchy + shadow_shift;
  opts.scratch_base =
      deamortize ? 2 * hierarchy + 2 * shadow_shift : hierarchy;
  opts.deamortize_reorders = deamortize;
  opts.drbg_seed = seed ^ 0x6f626c69;
  opts.charge_index_io = true;  // §5.1.2 spilled-index serving variant
  opts.io_retry = io_retry;
  opts.registry = registry;
  opts.trace = trace;
  auto agent =
      agent::ObliviousAgent::Create(sys.core.get(), cache_device, opts);
  if (!agent.ok()) std::abort();
  sys.agent = std::move(agent).value();
  {
    storage::SimBlockDevice* steg = sys.steg_sim.get();
    if (sys.cache_volumes) {
      storage::ShardedBlockDevice* cache = &sys.cache_volumes->device();
      sys.agent->store().set_clock_fn(
          [steg, cache] { return steg->clock_ms() + cache->clock_ms(); });
      if (trace != nullptr) {
        trace->set_clock_fn(
            [steg, cache] { return steg->clock_ms() + cache->clock_ms(); });
        cache->set_trace(trace);
      }
    } else {
      storage::SimBlockDevice* cache = sys.cache_sim.get();
      sys.agent->store().set_clock_fn(
          [steg, cache] { return steg->clock_ms() + cache->clock_ms(); });
      if (trace != nullptr) {
        trace->set_clock_fn(
            [steg, cache] { return steg->clock_ms() + cache->clock_ms(); });
      }
    }
  }
  if (registry != nullptr) {
    sys.crypto_metrics = stegfs::RegisterCryptoMetrics(registry);
    sys.steg_sim->RegisterMetrics(registry, "steg");
    if (sys.cache_volumes) {
      if (sys.cache_volumes->replica_count() > 1) {
        // Replicated layout: per-replica sim/fault counters plus the
        // per-shard replication health gauges, all under "cache.".
        sys.cache_volumes->RegisterMetrics(registry, "cache");
      } else {
        for (size_t k = 0; k < sys.cache_volumes->shard_count(); ++k) {
          sys.cache_volumes->sim(k).RegisterMetrics(
              registry, "cache.shard" + std::to_string(k));
        }
      }
    } else {
      sys.cache_sim->RegisterMetrics(registry, "cache");
    }
  }

  // Dummy pool for the Figure-6 relocating updates (provisioned in
  // max-file-size chunks, as a user population would).
  constexpr uint64_t kChunk = 8192;
  for (uint64_t left = users * file_blocks + 2048; left > 0;) {
    const uint64_t take = std::min(left, kChunk);
    if (!sys.agent->CreateDummyFile("bench", take).ok()) std::abort();
    left -= take;
  }

  const size_t payload = sys.core->payload_size();
  Bytes data(file_blocks * payload);
  for (uint64_t u = 0; u < users; ++u) {
    auto id = sys.agent->CreateHiddenFile("bench");
    if (!id.ok()) std::abort();
    for (uint64_t b = 0; b < file_blocks; ++b) {
      std::fill(data.begin() + b * payload, data.begin() + (b + 1) * payload,
                static_cast<uint8_t>(u + b));
    }
    if (!sys.agent->Write(*id, 0, data).ok()) std::abort();
    sys.files.push_back(*id);
  }
  if (prewarm) {
    for (uint64_t u = 0; u < users; ++u) {
      if (!sys.agent->Read(sys.files[u], 0, file_blocks * payload).ok()) {
        std::abort();
      }
    }
  }
  return sys;
}

/// One dispatched serving phase for the Fig10b/Fig11c sweeps: `users`
/// threads each run `task(session, file, user)` through RequestDispatcher
/// sessions (group commit up to `buffer`). With `deamortize`, re-orders
/// run as incremental double-buffered chains pumped from the
/// dispatcher's idle gaps; any tail chain is drained inside the measured
/// window so the throughput comparison charges every block of re-order
/// work to somebody. Stats are reset after system setup, so the
/// harvested counters — including the running-max max_stall_ms —
/// describe the measured serving phase only, not population/prewarm.
struct DispatchRun {
  /// Whether the store actually ran deamortized (Create() falls back to
  /// the blocking schedule on shallow hierarchies).
  bool deamortized = false;
  /// Spindles the cache I/O fanned out across (1 = single volume) and
  /// whether the ping-pong shadow regions landed on distinct spindles.
  size_t io_shards = 1;
  bool shadow_separated = false;
  double virtual_ms = 0;
  double retrieve_ms = 0;
  double sort_ms = 0;
  double max_stall_ms = 0;
  /// p99 of the per-flush/per-step stall histogram (virtual ms).
  double stall_p99_ms = 0;
  /// p99 of the store's blocks per scan sweep (one vectored read each).
  double queue_depth_p99 = 0;
  double reorder_steps = 0;
  uint64_t scan_passes = 0;
  /// Wall-clock time the scan passes spent decrypting probes (never on
  /// the virtual disk clock) and the serving phase's share of the
  /// process-wide crypto traffic (delta over the measured window).
  double crypto_wall_ms = 0;
  uint64_t crypto_bytes = 0;
  uint64_t crypto_batches = 0;
  std::vector<double> reorder_ms;
  agent::DispatcherStats dstats;
};

/// `registry`/`trace` (optional, typically harness GlobalMetrics() /
/// GlobalTrace() for the measured configuration only) instrument the run:
/// the trace log is cleared and armed for the serving phase, a
/// StatsSnapshotter folds periodic counter samples into the timeline
/// from the dispatcher's pump, and the registry is latched before
/// teardown so end-of-process dumps keep the final values.
inline DispatchRun RunDispatchedServing(
    uint64_t users, uint64_t file_blocks, uint64_t seed, uint64_t buffer,
    bool deamortize,
    const std::function<Status(agent::RequestDispatcher::Session&,
                               agent::ObliviousAgent::FileId, uint64_t)>&
        task,
    size_t cache_shards = 0, obs::Registry* registry = nullptr,
    obs::TraceLog* trace = nullptr) {
  auto sys = MakeObliviousSystem(users, file_blocks, seed, buffer, true,
                                 deamortize, cache_shards, registry, trace);
  agent::DispatcherOptions options;
  options.max_batch = buffer;
  // Wide wall-clock window: group composition then depends on the
  // deterministic fill target (min(open sessions, B)), not on CI
  // scheduling jitter; under load the target is reached long before the
  // window, so the wall cost is nil.
  options.commit_window = std::chrono::milliseconds(50);
  options.clock_fn = [&sys] { return sys.clock_ms(); };
  options.registry = registry;
  options.trace = trace;
  std::unique_ptr<obs::StatsSnapshotter> snapshotter;
  if (registry != nullptr && trace != nullptr) {
    snapshotter = std::make_unique<obs::StatsSnapshotter>(
        registry, trace, /*interval_ms=*/50.0);
    options.snapshotter = snapshotter.get();
  }
  sys.agent->store().ResetStats();
  if (trace != nullptr) {
    // Arm for the serving phase only; each instrumented run restarts the
    // timeline, so the exported trace shows the last configuration.
    trace->Clear();
    trace->set_enabled(true);
  }
  const double t0 = sys.clock_ms();
  const stegfs::CryptoTrafficSnapshot crypto0 = stegfs::GlobalCryptoTraffic();
  agent::RequestDispatcher dispatcher(sys.agent.get(), options);
  {
    std::vector<std::unique_ptr<agent::RequestDispatcher::Session>> sessions;
    for (uint64_t u = 0; u < users; ++u) {
      sessions.push_back(dispatcher.OpenSession());
    }
    std::vector<std::function<Status()>> tasks;
    for (uint64_t u = 0; u < users; ++u) {
      tasks.push_back([&, u]() -> Status {
        return task(*sessions[u], sys.files[u], u);
      });
    }
    for (const Status& status : workload::RunOnThreads(std::move(tasks))) {
      if (!status.ok()) std::abort();
    }
  }
  dispatcher.Stop();
  // Charge the tail: deamortized chains may still owe work after the
  // last request; it belongs to this serving phase's bill.
  bool more = true;
  while (more) {
    if (!sys.agent->store().StepReorder(1u << 20, &more).ok()) std::abort();
  }

  DispatchRun run;
  run.deamortized = sys.agent->store().deamortized();
  run.io_shards = sys.agent->store().io_shard_count();
  run.shadow_separated = sys.agent->store().shadow_spindle_separated();
  run.virtual_ms = sys.clock_ms() - t0;
  const auto stats = sys.agent->store().stats();
  run.retrieve_ms = stats.retrieve_ms;
  run.sort_ms = stats.sort_ms;
  run.max_stall_ms = stats.max_stall_ms;
  run.stall_p99_ms = stats.stall_p99_ms;
  run.queue_depth_p99 = sys.agent->store().io_stats().queue_depth_p99;
  run.reorder_steps = static_cast<double>(stats.reorder_steps);
  run.scan_passes = stats.scan_passes;
  run.crypto_wall_ms = stats.crypto_wall_ms;
  const stegfs::CryptoTrafficSnapshot crypto1 = stegfs::GlobalCryptoTraffic();
  run.crypto_bytes = crypto1.bytes - crypto0.bytes;
  run.crypto_batches = crypto1.batches - crypto0.batches;
  run.reorder_ms = stats.reorder_ms;
  run.dstats = dispatcher.stats();
  if (trace != nullptr) trace->set_enabled(false);
  // Latch while the instruments are still alive: sys tears down at
  // return, and the end-of-process --metrics dump wants final values.
  if (registry != nullptr) registry->Latch();
  return run;
}

}  // namespace steghide::bench

#endif  // STEGHIDE_BENCH_COMMON_H_
