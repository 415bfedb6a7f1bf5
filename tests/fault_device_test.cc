// Fault-matrix suite for the failure-path plumbing: the scripted
// FaultInjectionBlockDevice (every fault kind, determinism, vectored
// mid-batch semantics), the RetryingBlockDevice budget, the store's
// io_retry budget (one decorator under every store I/O, one traced
// instant per retry), and the regression tests for the stuck-maintenance
// bug — a transient fault mid-reorder-cascade must leave the chain
// resumable at the store level and must never wedge the dispatcher's
// idle pump.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "agent/dispatch/request_dispatcher.h"
#include "agent/oblivious_agent.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "storage/fault_device.h"
#include "storage/mem_block_device.h"
#include "storage/retry_device.h"
#include "storage/volume_set.h"
#include "testing/golden.h"

namespace steghide::storage {
namespace {

using steghide::testing::FillGolden;
using steghide::testing::GoldenBlock;

// ---- FaultInjectionBlockDevice ------------------------------------------

TEST(FaultDeviceTest, TransientErrorFiresOnScheduleAndRecovers) {
  MemBlockDevice mem(16, 512);
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kTransientError;
  spec.every_nth = 3;  // op indices 0, 3, 6, ... fail
  plan.faults.push_back(spec);
  FaultInjectionBlockDevice fault(&mem, plan);

  const Bytes image = GoldenBlock(1, 0, 512);
  EXPECT_EQ(fault.WriteBlock(0, image.data()).code(), StatusCode::kIoError);
  // A retry is a new op index (1), off the schedule.
  EXPECT_TRUE(fault.WriteBlock(0, image.data()).ok());
  EXPECT_TRUE(fault.WriteBlock(1, image.data()).ok());
  EXPECT_EQ(fault.WriteBlock(2, image.data()).code(), StatusCode::kIoError);

  const FaultStats stats = fault.stats();
  EXPECT_EQ(stats.ops, 4u);
  EXPECT_EQ(stats.injected_errors, 2u);
}

TEST(FaultDeviceTest, MaxFiresCapsATransientSpec) {
  MemBlockDevice mem(16, 512);
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kTransientError;
  spec.every_nth = 1;
  spec.max_fires = 2;
  plan.faults.push_back(spec);
  FaultInjectionBlockDevice fault(&mem, plan);

  Bytes out(512);
  EXPECT_FALSE(fault.ReadBlock(0, out.data()).ok());
  EXPECT_FALSE(fault.ReadBlock(0, out.data()).ok());
  // Budget burned: the spec never fires again.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(fault.ReadBlock(0, out.data()).ok());
  }
  EXPECT_EQ(fault.stats().injected_errors, 2u);
}

TEST(FaultDeviceTest, StickyErrorLatchesTheRegionForever) {
  MemBlockDevice mem(16, 512);
  ASSERT_TRUE(FillGolden(mem, 7).ok());
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kStickyError;
  spec.ops = FaultSpec::OpFilter::kRead;
  spec.first_block = 4;
  spec.last_block = 6;
  plan.faults.push_back(spec);
  FaultInjectionBlockDevice fault(&mem, plan);

  Bytes out(512);
  for (int attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(fault.ReadBlock(5, out.data()).code(), StatusCode::kIoError);
  }
  // Outside the bad region — and writes into it — keep working.
  EXPECT_TRUE(fault.ReadBlock(3, out.data()).ok());
  EXPECT_TRUE(fault.ReadBlock(7, out.data()).ok());
  EXPECT_TRUE(fault.WriteBlock(5, out.data()).ok());
}

TEST(FaultDeviceTest, CorruptReadIsSilentAndDeterministic) {
  MemBlockDevice mem(8, 512);
  ASSERT_TRUE(FillGolden(mem, 3).ok());
  FaultPlan plan;
  plan.seed = 99;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kCorrupt;
  spec.ops = FaultSpec::OpFilter::kRead;
  spec.every_nth = 2;
  plan.faults.push_back(spec);

  FaultInjectionBlockDevice fault(&mem, plan);
  Bytes corrupted(512);
  // Op 0 matches: Status OK, bytes flipped (silent bit-rot).
  ASSERT_TRUE(fault.ReadBlock(2, corrupted.data()).ok());
  EXPECT_NE(corrupted, GoldenBlock(3, 2, 512));
  EXPECT_EQ(fault.stats().corrupted_blocks, 1u);
  // Op 1 does not match: clean read, and the backing store was never
  // touched by the corruption.
  Bytes clean(512);
  ASSERT_TRUE(fault.ReadBlock(2, clean.data()).ok());
  EXPECT_EQ(clean, GoldenBlock(3, 2, 512));

  // Same plan + seed + op sequence => identical corrupted bytes.
  FaultInjectionBlockDevice twin(&mem, plan);
  Bytes corrupted_twin(512);
  ASSERT_TRUE(twin.ReadBlock(2, corrupted_twin.data()).ok());
  EXPECT_EQ(corrupted_twin, corrupted);
}

TEST(FaultDeviceTest, TornWritePersistsAPrefixThenFails) {
  MemBlockDevice mem(8, 512);
  const Bytes old_image(512, 0xaa);
  ASSERT_TRUE(mem.WriteBlock(1, old_image.data()).ok());
  FaultPlan plan;
  plan.seed = 5;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kTorn;
  spec.ops = FaultSpec::OpFilter::kWrite;
  spec.max_fires = 1;
  plan.faults.push_back(spec);
  FaultInjectionBlockDevice fault(&mem, plan);

  const Bytes new_image(512, 0x55);
  EXPECT_EQ(fault.WriteBlock(1, new_image.data()).code(),
            StatusCode::kIoError);
  EXPECT_EQ(fault.stats().torn_writes, 1u);

  Bytes on_disk(512);
  ASSERT_TRUE(mem.ReadBlock(1, on_disk.data()).ok());
  // A seeded-length prefix carries the new bytes, the tail the old —
  // a torn sector, not a no-op and not a clean write.
  EXPECT_EQ(on_disk.front(), 0x55);
  EXPECT_EQ(on_disk.back(), 0xaa);
  size_t boundary = 0;
  while (boundary < 512 && on_disk[boundary] == 0x55) ++boundary;
  for (size_t i = boundary; i < 512; ++i) EXPECT_EQ(on_disk[i], 0xaa);

  // Re-driving the same write completes the torn sector.
  EXPECT_TRUE(fault.WriteBlock(1, new_image.data()).ok());
  ASSERT_TRUE(mem.ReadBlock(1, on_disk.data()).ok());
  EXPECT_EQ(on_disk, new_image);
}

TEST(FaultDeviceTest, LatencySpikeChargesTheSink) {
  MemBlockDevice mem(8, 512);
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kLatency;
  spec.latency_ms = 12.5;
  spec.every_nth = 2;
  plan.faults.push_back(spec);
  FaultInjectionBlockDevice fault(&mem, plan);
  double charged = 0.0;
  fault.set_latency_fn([&charged](double ms) { charged += ms; });

  Bytes out(512);
  ASSERT_TRUE(fault.ReadBlock(0, out.data()).ok());  // op 0: spike
  ASSERT_TRUE(fault.ReadBlock(0, out.data()).ok());  // op 1: clean
  ASSERT_TRUE(fault.ReadBlock(0, out.data()).ok());  // op 2: spike
  EXPECT_DOUBLE_EQ(charged, 25.0);
  EXPECT_EQ(fault.stats().latency_events, 2u);
}

TEST(FaultDeviceTest, DeathStopsEverythingUntilRevive) {
  MemBlockDevice mem(8, 512);
  ASSERT_TRUE(FillGolden(mem, 11).ok());
  FaultInjectionBlockDevice fault(&mem, {});

  Bytes out(512);
  ASSERT_TRUE(fault.ReadBlock(0, out.data()).ok());
  fault.Kill();
  EXPECT_TRUE(fault.dead());
  EXPECT_EQ(fault.ReadBlock(0, out.data()).code(), StatusCode::kIoError);
  EXPECT_EQ(fault.WriteBlock(0, out.data()).code(), StatusCode::kIoError);
  EXPECT_FALSE(fault.Flush().ok());
  fault.Revive();
  EXPECT_TRUE(fault.ReadBlock(0, out.data()).ok());
  EXPECT_TRUE(fault.Flush().ok());
}

TEST(FaultDeviceTest, PlannedDeathTriggersAtTheScriptedOp) {
  MemBlockDevice mem(8, 512);
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kDeath;
  spec.start_after = 3;
  spec.max_fires = 1;
  plan.faults.push_back(spec);
  FaultInjectionBlockDevice fault(&mem, plan);

  Bytes out(512);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fault.ReadBlock(0, out.data()).ok()) << "op " << i;
  }
  EXPECT_FALSE(fault.ReadBlock(0, out.data()).ok());  // op 3: the plug
  EXPECT_TRUE(fault.dead());
  EXPECT_FALSE(fault.ReadBlock(0, out.data()).ok());
}

TEST(FaultDeviceTest, VectoredWriteFailsMidBatchLeavingEarlierBlocks) {
  MemBlockDevice mem(8, 512);
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kTransientError;
  spec.start_after = 2;  // third per-block op of the batch
  spec.max_fires = 1;
  plan.faults.push_back(spec);
  FaultInjectionBlockDevice fault(&mem, plan);

  Bytes data(4 * 512);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i / 512 + 1);
  }
  const std::vector<uint64_t> ids = {0, 1, 2, 3};
  EXPECT_FALSE(fault.WriteBlocks(ids, data.data()).ok());

  // Blocks before the failing op are durable; the failed one and its
  // successors never reached the backing device (a torn batch).
  Bytes out(512);
  ASSERT_TRUE(mem.ReadBlock(0, out.data()).ok());
  EXPECT_EQ(out, Bytes(512, 1));
  ASSERT_TRUE(mem.ReadBlock(1, out.data()).ok());
  EXPECT_EQ(out, Bytes(512, 2));
  ASSERT_TRUE(mem.ReadBlock(2, out.data()).ok());
  EXPECT_EQ(out, Bytes(512, 0));
  ASSERT_TRUE(mem.ReadBlock(3, out.data()).ok());
  EXPECT_EQ(out, Bytes(512, 0));

  // Re-driving the whole batch (what the retry layers do) completes it.
  EXPECT_TRUE(fault.WriteBlocks(ids, data.data()).ok());
  ASSERT_TRUE(mem.ReadBlock(3, out.data()).ok());
  EXPECT_EQ(out, Bytes(512, 4));
}

// ---- RetryingBlockDevice -------------------------------------------------

TEST(RetryDeviceTest, BackoffChargesTheLatencySink) {
  MemBlockDevice mem(8, 512);
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kTransientError;
  spec.max_fires = 2;  // ops 0 and 1 fail, op 2 succeeds
  plan.faults.push_back(spec);
  FaultInjectionBlockDevice fault(&mem, plan);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_ms = 1.0;
  policy.backoff_multiplier = 2.0;
  RetryingBlockDevice retry(&fault, policy);
  double charged = 0.0;
  retry.set_latency_fn([&charged](double ms) { charged += ms; });

  Bytes out(512);
  ASSERT_TRUE(retry.ReadBlock(0, out.data()).ok());
  // Two retries: 1.0ms before the first, 2.0ms before the second.
  EXPECT_DOUBLE_EQ(charged, 3.0);
  const RetryStats stats = retry.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(RetryDeviceTest, BackoffLadderDoublesPerRetry) {
  RetryPolicy base;
  base.max_attempts = 5;
  base.backoff_ms = 1.0;
  base.backoff_multiplier = 2.0;

  // The exact ladder the exact-charge pins above rely on.
  EXPECT_DOUBLE_EQ(base.BackoffFor(0), 1.0);
  EXPECT_DOUBLE_EQ(base.BackoffFor(1), 2.0);
  EXPECT_DOUBLE_EQ(base.BackoffFor(2), 4.0);
}

TEST(RetryDeviceTest, NonIoErrorsAreNotRetried) {
  MemBlockDevice mem(8, 512);
  RetryingBlockDevice retry(&mem);
  Bytes out(512);
  // Out-of-range is kInvalidArgument territory: one attempt, no retry.
  EXPECT_FALSE(retry.ReadBlock(100, out.data()).ok());
  EXPECT_EQ(retry.stats().retries, 0u);
}

}  // namespace
}  // namespace steghide::storage

// ---- Transient fault mid-cascade: store and dispatcher regressions ------

namespace steghide::agent {
namespace {

oblivious::ObliviousStoreOptions DeamortizedOptions() {
  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = 8;
  opts.capacity_blocks = 128;  // levels 16, 32, 64, 128
  opts.partition_base = 0;
  opts.scratch_base = 2 * 128 - 2 * 8;  // 240
  opts.drbg_seed = 41;
  opts.deamortize_reorders = true;
  opts.shadow_base = 240 + 128;
  opts.reorder_step_blocks = 1;  // chains linger across many slices
  return opts;
}

/// Agent system whose oblivious cache sits on a killable fault device.
struct FaultySystem {
  /// `registry`, when given, receives the store's and reader's metrics.
  explicit FaultySystem(uint64_t seed, obs::Registry* registry = nullptr)
      : steg_mem(4096, 4096),
        cache_mem(768, 4096),
        cache_fault(&cache_mem, {}),
        core(&steg_mem, stegfs::StegFsOptions{seed, true}) {
    EXPECT_TRUE(core.Format().ok());
    oblivious::ObliviousStoreOptions options = DeamortizedOptions();
    options.registry = registry;
    auto created = ObliviousAgent::Create(&core, &cache_fault, options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    agent = std::move(created).value();
    EXPECT_TRUE(agent->CreateDummyFile("u", 600).ok());
  }

  /// Creates `files` hidden files of `blocks` payload blocks each.
  std::vector<ObliviousAgent::FileId> Populate(size_t files, size_t blocks) {
    std::vector<ObliviousAgent::FileId> ids;
    const size_t payload = core.payload_size();
    for (size_t f = 0; f < files; ++f) {
      auto id = agent->CreateHiddenFile("u");
      EXPECT_TRUE(id.ok());
      Bytes data(blocks * payload);
      for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(f * 37 + i / payload);
      }
      EXPECT_TRUE(agent->Write(*id, 0, data).ok());
      ids.push_back(*id);
    }
    return ids;
  }

  /// Re-stages a small store-layer working set until an incremental
  /// re-order chain is left mid-flight. Agent requests pay serving taxes
  /// op by op, which drains shallow chains before the call returns; raw
  /// MultiInsert bursts stop paying the moment the call ends, so a
  /// cascade reliably outlives the burst that triggered it.
  void BuildReorderBacklog() {
    auto& store = agent->store();
    uint64_t next_id = 1 << 20;
    // Pre-fill deep levels with everything drained, so the burst below
    // triggers a cascade too large to finish inside one call's taxes.
    {
      Bytes fill(8 * store.payload_size(), 0x11);
      std::vector<oblivious::RecordId> rids(8);
      for (int round = 0; round < 8; ++round) {
        for (auto& id : rids) id = next_id++;
        ASSERT_TRUE(store.MultiInsert(rids, fill.data()).ok());
        bool more = true;
        while (more) ASSERT_TRUE(store.StepReorder(1u << 20, &more).ok());
      }
    }
    Bytes payloads(16 * store.payload_size(), 0x5a);
    std::vector<oblivious::RecordId> fresh(16);
    for (auto& id : fresh) id = next_id++;
    for (int round = 0; round < 8 && !store.reorder_pending(); ++round) {
      // Re-staging the same ids keeps the flush pressure up without
      // growing the present set past capacity.
      ASSERT_TRUE(store.MultiInsert(fresh, payloads.data()).ok());
    }
    ASSERT_TRUE(store.reorder_pending()) << "no chain ever went pending";
  }

  storage::MemBlockDevice steg_mem;
  storage::MemBlockDevice cache_mem;
  storage::FaultInjectionBlockDevice cache_fault;
  stegfs::StegFsCore core;
  std::unique_ptr<ObliviousAgent> agent;
};

// ---- Store-level retry budget (ObliviousStoreOptions::io_retry) ----------

/// The store's cache volume for the retry script: one flaky device, or
/// four shards of which shard 2 is flaky. The fault is a transient read
/// error on every 7th op, capped at 6 fires.
struct FlakyCache {
  explicit FlakyCache(size_t shards) {
    std::vector<storage::BlockDevice*> tops;
    for (size_t k = 0; k < shards; ++k) {
      mems.push_back(
          std::make_unique<storage::MemBlockDevice>(512 / shards, 4096));
      tops.push_back(mems.back().get());
    }
    storage::FaultPlan plan;
    storage::FaultSpec spec;
    spec.kind = storage::FaultSpec::Kind::kTransientError;
    spec.ops = storage::FaultSpec::OpFilter::kRead;
    spec.every_nth = 7;
    spec.max_fires = 6;
    plan.faults.push_back(spec);
    const size_t flaky = shards / 2;
    fault = std::make_unique<storage::FaultInjectionBlockDevice>(tops[flaky],
                                                                 plan);
    tops[flaky] = fault.get();
    if (shards > 1) {
      sharded = std::make_unique<storage::ShardedBlockDevice>(tops);
      device = sharded.get();
    } else {
      device = fault.get();
    }
  }

  std::vector<std::unique_ptr<storage::MemBlockDevice>> mems;
  std::unique_ptr<storage::FaultInjectionBlockDevice> fault;
  std::unique_ptr<storage::ShardedBlockDevice> sharded;
  storage::BlockDevice* device = nullptr;
};

oblivious::ObliviousStoreOptions RetryStoreOptions() {
  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = 8;
  opts.capacity_blocks = 128;  // levels 16, 32, 64, 128
  opts.partition_base = 0;
  opts.scratch_base = 2 * 128 - 2 * 8;  // 240
  opts.drbg_seed = 43;
  return opts;
}

/// Inserts 96 records (flushes and re-orders read the levels), then
/// reads each back (scan sweeps). Returns the first failure.
Status InsertAndReadBack(oblivious::ObliviousStore& store) {
  const size_t ps = store.payload_size();
  for (oblivious::RecordId id = 0; id < 96; ++id) {
    const Bytes payload(ps, static_cast<uint8_t>(id));
    STEGHIDE_RETURN_IF_ERROR(store.Insert(id, payload.data()));
  }
  Bytes out(ps);
  for (oblivious::RecordId id = 0; id < 96; ++id) {
    STEGHIDE_RETURN_IF_ERROR(store.Read(id, out.data()));
    if (out != Bytes(ps, static_cast<uint8_t>(id))) {
      return Status::Corruption("record " + std::to_string(id));
    }
  }
  return Status::OK();
}

TEST(StoreRetryTest, EveryRetryIsCountedAndTraced) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    FlakyCache cache(shards);
    obs::TraceLog log;
    log.set_enabled(true);
    oblivious::ObliviousStoreOptions opts = RetryStoreOptions();
    opts.io_retry = storage::RetryPolicy{.max_attempts = 8};
    opts.trace = &log;
    auto store = oblivious::ObliviousStore::Create(cache.device, opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();

    const Status status = InsertAndReadBack(**store);
    ASSERT_TRUE(status.ok()) << status.ToString();
    const storage::IoSchedulerStats io = (*store)->io_stats();
    EXPECT_GT(io.retries, 0u);
    EXPECT_EQ(io.retry_exhausted, 0u);
    EXPECT_EQ(io.retries, cache.fault->stats().injected_errors);
    uint64_t instants = 0;
    for (const obs::TraceEvent& ev : log.events()) {
      if (ev.kind == obs::TraceEvent::Kind::kInstant &&
          std::string(ev.label()) == "io.retry") {
        ++instants;
      }
    }
    EXPECT_EQ(instants, io.retries);
  }
}

TEST(StoreRetryTest, WithoutABudgetTheSameScriptFails) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    FlakyCache cache(shards);
    auto store =
        oblivious::ObliviousStore::Create(cache.device, RetryStoreOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(InsertAndReadBack(**store).code(), StatusCode::kIoError);
    EXPECT_EQ((*store)->io_stats().retries, 0u);
  }
}

TEST(FaultyCascadeTest, StoreChainSurvivesATransientFaultMidCascade) {
  FaultySystem sys(2024);
  const auto ids = sys.Populate(6, 4);
  sys.BuildReorderBacklog();
  const size_t payload = sys.core.payload_size();

  // Pull the plug mid-chain: the pump slice fails but must leave the
  // chain pending and resumable, not half-consumed.
  sys.cache_fault.Kill();
  bool more = true;
  const Status failed = sys.agent->store().StepReorder(8, &more);
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_TRUE(sys.agent->store().reorder_pending());

  // Power restored: the same chain drains to completion.
  sys.cache_fault.Revive();
  while (sys.agent->store().reorder_pending()) {
    ASSERT_TRUE(sys.agent->store().StepReorder(1 << 20, &more).ok());
  }

  // Every record written before, during and after the fault reads back.
  for (size_t f = 0; f < ids.size(); ++f) {
    auto back = sys.agent->Read(ids[f], 0, 4 * payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    for (size_t b = 0; b < 4; ++b) {
      EXPECT_EQ(Bytes(back->begin() + b * payload,
                      back->begin() + (b + 1) * payload),
                Bytes(payload, static_cast<uint8_t>(f * 37 + b)));
    }
  }
}

TEST(FaultyCascadeTest, DispatcherPumpRetriesInsteadOfWedging) {
  // The stuck-maintenance regression: with the chain pending, the queue
  // empty, and the device dead, every idle pump slice fails. The
  // historical behaviour parked the worker on the condvar forever — no
  // submission ever came to signal it in the idle-system case, and the
  // chain never drained. The fixed worker retries with bounded backoff,
  // counts the failures, escalates past the retry limit, and finishes
  // the chain as soon as the device recovers. The I/O thread owns the
  // system from the dispatcher's construction to Stop(), so the backlog
  // is built first and this thread then watches only the dispatcher's
  // stats and the store's chain gauge.
  obs::Registry registry;
  FaultySystem sys(2025, &registry);
  sys.Populate(6, 4);
  sys.BuildReorderBacklog();
  const auto chain_steps = [&registry] {
    return registry.Snapshot().at("store.chain_pending_steps");
  };

  sys.cache_fault.Kill();
  DispatcherOptions options;
  options.maintenance_budget = 8;
  RequestDispatcher dispatcher(sys.agent.get(), options);

  // The worker must keep re-attempting while dead (wall-clock poll, not
  // a fixed sleep: all we need is evidence of bounded retrying).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (dispatcher.stats().maintenance_escalations == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  DispatcherStats mid = dispatcher.stats();
  EXPECT_GT(mid.maintenance_pump_errors, 0u);
  EXPECT_GE(mid.maintenance_pump_retries, 4u);
  EXPECT_GE(mid.maintenance_escalations, 1u);
  EXPECT_GT(chain_steps(), 0.0);

  // Recovery: the next retry succeeds and the idle pump drains the
  // chain without any request traffic.
  sys.cache_fault.Revive();
  while (chain_steps() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(chain_steps(), 0.0);

  dispatcher.Stop();
  EXPECT_FALSE(sys.agent->store().reorder_pending());
  const DispatcherStats stats = dispatcher.stats();
  EXPECT_GT(stats.maintenance_pumps, 0u);
}

}  // namespace
}  // namespace steghide::agent
