// Multi-level Dump cascade coverage: forces a level-1 → level-2 →
// level-3 cascade (three re-orders triggered by one flush), pins the
// blocking/deamortized trace equivalence across it, and checks that
// every live record stays readable at every point of the cascade — in
// blocking mode, mid-chain, after the chain drains, and after a blocking
// drain that died mid-cascade.
//
// Geometry: B = 4, N = 64 → levels of 8, 16, 32, 64 blocks. With pure
// distinct-id inserts the flush arithmetic is deterministic: flush 7
// (the 28th insert) finds L1 = 8 and L2 = 16 full, so dump(1) spills
// L2 into L3, dump(0) refills L2 from L1, and the flush rebuilds L1 —
// three re-orders from one serving op.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "oblivious/oblivious_store.h"
#include "storage/fault_device.h"
#include "storage/mem_block_device.h"
#include "storage/trace_device.h"
#include "testing/rng.h"
#include "util/random.h"

namespace steghide::oblivious {
namespace {

constexpr uint64_t kBuffer = 4;
constexpr uint64_t kCapacity = 64;
constexpr uint64_t kHierarchy = 2 * kCapacity - 2 * kBuffer;  // 120

ObliviousStoreOptions CascadeOptions(bool deamortize, bool strict,
                                     uint64_t seed) {
  ObliviousStoreOptions opts;
  opts.buffer_blocks = kBuffer;
  opts.capacity_blocks = kCapacity;
  opts.partition_base = 0;
  opts.scratch_base = kHierarchy;
  opts.deamortize_reorders = deamortize;
  opts.shadow_base = kHierarchy + kCapacity;
  opts.strict_reorder_schedule = strict;
  opts.reorder_step_blocks = 1;  // pace at the floor; tests step by hand
  opts.drbg_seed = seed;
  return opts;
}

uint64_t DeviceBlocks(bool deamortize) {
  return kHierarchy + kCapacity + (deamortize ? kHierarchy : 0) + 4;
}

Bytes PayloadFor(const ObliviousStore& store, uint64_t id) {
  Bytes p(store.payload_size());
  for (size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<uint8_t>(id * 7 + i);
  }
  return p;
}

void VerifyAll(ObliviousStore& store, uint64_t count, const char* when) {
  Bytes out(store.payload_size());
  for (uint64_t id = 0; id < count; ++id) {
    ASSERT_TRUE(store.Read(id, out.data()).ok()) << when << " id " << id;
    ASSERT_EQ(out, PayloadFor(store, id)) << when << " id " << id;
  }
}

void DrainStore(ObliviousStore& store) {
  bool more = true;
  int iters = 0;
  while (more) {
    ASSERT_TRUE(store.StepReorder(1u << 20, &more).ok());
    ASSERT_LT(++iters, 10000) << "re-order chain failed to drain";
  }
}

TEST(ReorderCascadeTest, BlockingCascadeRunsThreeReordersInOneOp) {
  ObliviousStoreOptions opts = CascadeOptions(false, false, 101);
  storage::MemBlockDevice dev(DeviceBlocks(false), 4096);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok());

  uint64_t max_delta = 0;
  uint64_t cascade_at = 0;
  for (uint64_t id = 0; id < 48; ++id) {
    const uint64_t before = (*store)->stats().reorders;
    ASSERT_TRUE((*store)->Insert(id, PayloadFor(**store, id).data()).ok());
    const uint64_t delta = (*store)->stats().reorders - before;
    if (delta > max_delta) {
      max_delta = delta;
      cascade_at = id;
    }
  }
  // Flush 7 (insert #27, 0-based) must have cascaded L2 → L3, L1 → L2,
  // buffer → L1: three re-orders inside one serving op.
  EXPECT_GE(max_delta, 3u) << "no multi-level cascade observed";
  EXPECT_EQ(cascade_at, 27u);
  const auto occ = (*store)->LevelOccupancy();
  ASSERT_GE(occ.size(), 3u);
  EXPECT_GT(occ[2], 0u) << "level 3 never populated";
  VerifyAll(**store, 48, "post-cascade");
}

TEST(ReorderCascadeTest, DeamortizedCascadeInstallsJobChainInOrder) {
  ObliviousStoreOptions opts = CascadeOptions(true, false, 101);
  storage::MemBlockDevice dev(DeviceBlocks(true), 4096);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok());

  // Reach the pre-cascade state with every chain drained, so the flush
  // arithmetic matches the blocking schedule exactly.
  for (uint64_t id = 0; id < 27; ++id) {
    ASSERT_TRUE((*store)->Insert(id, PayloadFor(**store, id).data()).ok());
    DrainStore(**store);
  }
  // Insert #27 triggers the three-job chain: L2 → L3, L1 → L2, flush → L1.
  const uint64_t epoch_before = (*store)->reorder_epoch();
  const uint64_t reorders_before = (*store)->stats().reorders;
  ASSERT_TRUE((*store)->Insert(27, PayloadFor(**store, 27).data()).ok());

  // Step in small increments with no serving in between (reads would
  // stage records and spawn further chains): installs must land level by
  // level — epochs increase monotonically across many small steps, never
  // all at once — until the whole cascade has flipped.
  uint64_t last_epoch = (*store)->reorder_epoch();
  uint64_t install_points = last_epoch - epoch_before;
  bool more = true;
  int iters = 0;
  while (more) {
    ASSERT_TRUE((*store)->StepReorder(5, &more).ok());
    const uint64_t now = (*store)->reorder_epoch();
    if (now != last_epoch) {
      ++install_points;
      last_epoch = now;
    }
    ASSERT_LT(++iters, 10000);
  }
  EXPECT_GE((*store)->reorder_epoch() - epoch_before, 3u)
      << "cascade chain should install three levels";
  EXPECT_EQ((*store)->stats().reorders - reorders_before, 3u);
  EXPECT_GE(install_points, 2u) << "installs should spread across steps";
  const auto occ = (*store)->LevelOccupancy();
  EXPECT_GT(occ[2], 0u);
  VerifyAll(**store, 28, "post-chain");
}

TEST(ReorderCascadeTest, CascadeTraceEquivalentToBlockingSchedule) {
  // Pure-insert schedule across the full cascade depth, blocking vs
  // strict deamortized: per-level touch counts (reads and writes against
  // either region of each level, plus scratch) must match exactly.
  const auto run = [](bool /*deamortize*/,
                      storage::TraceBlockDevice& /*trace*/,
                      ObliviousStore& store) {
    for (uint64_t id = 0; id < kCapacity; ++id) {
      ASSERT_TRUE(store.Insert(id, PayloadFor(store, id).data()).ok());
    }
    Bytes out(store.payload_size());
    Rng rng(4141);
    for (int op = 0; op < 100; ++op) {
      ASSERT_TRUE(store.Read(rng.Uniform(kCapacity), out.data()).ok());
    }
  };
  const auto bucketize = [](const storage::IoTrace& trace, int levels)
      -> std::vector<std::pair<uint64_t, uint64_t>> {
    std::vector<std::pair<uint64_t, uint64_t>> counts(levels + 1);
    for (const storage::TraceEvent& ev : trace) {
      uint64_t offset;
      if (ev.block_id < kHierarchy) {
        offset = ev.block_id;
      } else if (ev.block_id >= kHierarchy + kCapacity &&
                 ev.block_id < 2 * kHierarchy + kCapacity) {
        offset = ev.block_id - (kHierarchy + kCapacity);  // shadow mirror
      } else {
        offset = ~uint64_t{0};  // scratch
      }
      size_t bucket = levels;
      if (offset != ~uint64_t{0}) {
        bucket = 0;
        for (uint64_t cap = 2 * kBuffer; offset >= cap; cap *= 2) {
          offset -= cap;
          ++bucket;
        }
      }
      if (ev.kind == storage::TraceEvent::Kind::kRead) {
        ++counts[bucket].first;
      } else {
        ++counts[bucket].second;
      }
    }
    return counts;
  };

  storage::MemBlockDevice blocking_mem(DeviceBlocks(true), 4096);
  storage::TraceBlockDevice blocking_trace(&blocking_mem);
  auto blocking =
      ObliviousStore::Create(&blocking_trace, CascadeOptions(false, false, 77));
  ASSERT_TRUE(blocking.ok());
  run(false, blocking_trace, **blocking);

  storage::MemBlockDevice strict_mem(DeviceBlocks(true), 4096);
  storage::TraceBlockDevice strict_trace(&strict_mem);
  auto strict =
      ObliviousStore::Create(&strict_trace, CascadeOptions(true, true, 77));
  ASSERT_TRUE(strict.ok());
  run(true, strict_trace, **strict);
  DrainStore(**strict);  // blocking did its last chain inline

  const int levels = (*blocking)->height();
  const auto blocking_counts = bucketize(blocking_trace.trace(), levels);
  const auto strict_counts = bucketize(strict_trace.trace(), levels);
  for (int r = 0; r <= levels; ++r) {
    EXPECT_EQ(blocking_counts[r].first, strict_counts[r].first)
        << (r == levels ? "scratch" : "level") << " " << r + 1 << " reads";
    EXPECT_EQ(blocking_counts[r].second, strict_counts[r].second)
        << (r == levels ? "scratch" : "level") << " " << r + 1 << " writes";
  }
  const auto bs = (*blocking)->stats();
  const auto ss = (*strict)->stats();
  EXPECT_EQ(bs.buffer_flushes, ss.buffer_flushes);
  EXPECT_EQ(bs.reorders, ss.reorders);
  EXPECT_EQ(bs.level_probe_reads, ss.level_probe_reads);
  EXPECT_EQ(bs.reorder_reads, ss.reorder_reads);
  EXPECT_EQ(bs.reorder_writes, ss.reorder_writes);
}

TEST(ReorderCascadeTest, EveryLiveRecordReadableThroughoutCascades) {
  // Non-strict deamortized store under the full fill plus churn, with
  // erratic stepping: every inserted record must be readable after every
  // single op, whatever the chain state.
  ObliviousStoreOptions opts = CascadeOptions(true, false, 55);
  storage::MemBlockDevice dev(DeviceBlocks(true), 4096);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok());

  Rng rng = testing::MakeTestRng();
  Bytes out((*store)->payload_size());
  for (uint64_t id = 0; id < kCapacity; ++id) {
    ASSERT_TRUE((*store)->Insert(id, PayloadFor(**store, id).data()).ok());
    if (rng.Bernoulli(0.4)) {
      ASSERT_TRUE((*store)->StepReorder(1 + rng.Uniform(16)).ok());
    }
    // Spot-check a random prefix sample after every op...
    for (int probe = 0; probe < 3; ++probe) {
      const uint64_t check = rng.Uniform(id + 1);
      ASSERT_TRUE((*store)->Read(check, out.data()).ok())
          << "after insert " << id << " reading " << check;
      ASSERT_EQ(out, PayloadFor(**store, check));
    }
  }
  // ...and everything, everywhere, once the dust settles.
  DrainStore(**store);
  VerifyAll(**store, kCapacity, "final");
  EXPECT_GT((*store)->stats().reorder_steps, 0u);
}

TEST(ReorderCascadeTest, FailedBlockingDrainIsFinishedByTheNextOp) {
  // Both schedules run one chain engine, so a blocking flush whose drain
  // fails leaves a resumable chain behind. Flush 11 (insert #43) dumps
  // L2 into a live L3, rewriting L3 in place, then L1 into L2, then
  // rebuilds L1. The device dies halfway through that cascade — inside
  // L3's rewrite, whose old index still maps ids 0..15 to slots now
  // partly overwritten. After Revive the next op must finish the
  // leftover chain before it scans or plans its own flush.
  const ObliviousStoreOptions opts = CascadeOptions(false, false, 101);
  constexpr uint64_t kTrigger = 43;

  // Dry run on a healthy device: device ops before and during the
  // cascade.
  uint64_t ops_before = 0;
  uint64_t ops_cascade = 0;
  {
    storage::MemBlockDevice mem(DeviceBlocks(false), 4096);
    storage::FaultInjectionBlockDevice dev(&mem);
    auto store = ObliviousStore::Create(&dev, opts);
    ASSERT_TRUE(store.ok());
    for (uint64_t id = 0; id < kTrigger; ++id) {
      ASSERT_TRUE((*store)->Insert(id, PayloadFor(**store, id).data()).ok());
    }
    ops_before = dev.stats().ops;
    const uint64_t reorders = (*store)->stats().reorders;
    ASSERT_TRUE(
        (*store)->Insert(kTrigger, PayloadFor(**store, kTrigger).data()).ok());
    ASSERT_EQ((*store)->stats().reorders - reorders, 3u);
    ops_cascade = dev.stats().ops - ops_before;
  }

  // The same run, with the device dying halfway through the cascade.
  storage::FaultPlan plan;
  storage::FaultSpec death;
  death.kind = storage::FaultSpec::Kind::kDeath;
  death.start_after = ops_before + ops_cascade / 2;
  death.max_fires = 1;
  plan.faults.push_back(death);
  storage::MemBlockDevice mem(DeviceBlocks(false), 4096);
  storage::FaultInjectionBlockDevice dev(&mem, plan);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok());
  for (uint64_t id = 0; id < kTrigger; ++id) {
    ASSERT_TRUE((*store)->Insert(id, PayloadFor(**store, id).data()).ok());
  }
  const ObliviousStats before = (*store)->stats();
  const Status failed =
      (*store)->Insert(kTrigger, PayloadFor(**store, kTrigger).data());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_TRUE((*store)->reorder_pending());
  EXPECT_EQ((*store)->stats().reorders, before.reorders)
      << "the device should die inside the first job";

  // Power restored. The next op reads four L3 records; re-staging them
  // fills the buffer, so it flushes too. The three leftover jobs install
  // first, then its own flush plans against the finished cascade: L1
  // holds only flush 11's four records, so that flush needs no dump.
  dev.Revive();
  const std::vector<RecordId> ids = {0, 1, 2, 3};
  const size_t ps = (*store)->payload_size();
  Bytes out(ids.size() * ps);
  ASSERT_TRUE((*store)->MultiRead(ids, out.data()).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(Bytes(out.begin() + i * ps, out.begin() + (i + 1) * ps) ==
                PayloadFor(**store, ids[i]))
        << "id " << ids[i];
  }
  EXPECT_FALSE((*store)->reorder_pending());
  const ObliviousStats after = (*store)->stats();
  EXPECT_EQ(after.buffer_flushes - before.buffer_flushes, 2u);
  EXPECT_EQ(after.reorders - before.reorders, 4u);
  EXPECT_EQ(after.reorder_steps, 0u);
  VerifyAll(**store, kTrigger + 1, "after recovery");
}

}  // namespace
}  // namespace steghide::oblivious
