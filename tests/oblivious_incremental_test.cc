// Deamortized re-order coverage: resumable merge phases, double-buffered
// level flips, scans served against the old permutation mid-rebuild,
// flush coalescing, tombstones, and the trace-equivalence pin — the
// combined serving + incremental-re-order touch counts per level equal
// the blocking schedule's, request for request, in the strict schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "oblivious/merge_sort.h"
#include "oblivious/oblivious_store.h"
#include "oblivious/reorder_job.h"
#include "storage/fault_device.h"
#include "storage/mem_block_device.h"
#include "storage/sim_device.h"
#include "storage/trace_device.h"
#include "testing/rng.h"
#include "util/random.h"

namespace steghide::oblivious {
namespace {

ObliviousStoreOptions DeamortOptions(uint64_t buffer, uint64_t capacity,
                                     bool strict, uint64_t seed) {
  const uint64_t hierarchy = 2 * capacity - 2 * buffer;
  ObliviousStoreOptions opts;
  opts.buffer_blocks = buffer;
  opts.capacity_blocks = capacity;
  opts.partition_base = 0;
  opts.scratch_base = hierarchy;
  opts.shadow_base = hierarchy + capacity;
  opts.deamortize_reorders = true;
  opts.strict_reorder_schedule = strict;
  opts.drbg_seed = seed;
  // Pace at the floor so chains linger across ops — the tests want to
  // observe serving mid-rebuild, not have taxes drain everything eagerly.
  opts.reorder_step_blocks = 1;
  return opts;
}

// Runs StepReorder until the chain drains; asserts convergence.
void DrainStore(ObliviousStore& store) {
  bool more = true;
  int iters = 0;
  while (more) {
    ASSERT_TRUE(store.StepReorder(1u << 20, &more).ok());
    ASSERT_LT(++iters, 10000) << "re-order chain failed to drain";
  }
}

uint64_t DeviceBlocksFor(const ObliviousStoreOptions& opts) {
  const uint64_t hierarchy =
      2 * opts.capacity_blocks - 2 * opts.buffer_blocks;
  return hierarchy + opts.capacity_blocks +
         (opts.deamortize_reorders ? hierarchy : 0) + 4;
}

Bytes PayloadFor(const ObliviousStore& store, uint8_t seed) {
  Bytes p(store.payload_size());
  for (size_t i = 0; i < p.size(); ++i) p[i] = static_cast<uint8_t>(seed + i);
  return p;
}

// ---- Resumable merge phases ----------------------------------------------

class ResumableMergeTest : public ::testing::Test {
 protected:
  ResumableMergeTest() : dev_(512, 4096), codec_(4096), drbg_(uint64_t{31}) {
    EXPECT_TRUE(cipher_.SetKey(drbg_.Generate(16)).ok());
  }

  // Runs the whole merge into [dst_base, dst_base + n) and returns the
  // labels in slot order.
  static Result<std::vector<uint64_t>> MergeAll(ExternalMergeSorter& sorter,
                                                uint64_t dst_base) {
    STEGHIDE_RETURN_IF_ERROR(sorter.BeginMerge(dst_base));
    bool done = false;
    while (!done) {
      STEGHIDE_RETURN_IF_ERROR(
          sorter.MergeStep(std::numeric_limits<uint64_t>::max(), &done));
    }
    return std::vector<uint64_t>(sorter.order().begin(), sorter.order().end());
  }

  Bytes GetBlock(uint64_t pos) {
    Bytes block(4096), payload(codec_.payload_size());
    EXPECT_TRUE(dev_.ReadBlock(pos, block.data()).ok());
    EXPECT_TRUE(codec_.Open(cipher_, block.data(), payload.data()).ok());
    return payload;
  }

  storage::MemBlockDevice dev_;
  stegfs::BlockCodec codec_;
  crypto::HashDrbg drbg_;
  crypto::CbcCipher cipher_;
};

TEST_F(ResumableMergeTest, ChunkedMergeStepsMatchBlockingFinish) {
  constexpr uint64_t kItems = 40;
  constexpr uint64_t kRun = 8;
  std::map<uint64_t, Bytes> payloads;
  std::vector<uint64_t> tags(kItems);
  Rng rng = testing::MakeTestRng();
  for (uint64_t i = 0; i < kItems; ++i) {
    Bytes p(codec_.payload_size());
    rng.Fill(p.data(), p.size());
    payloads[i] = p;
    tags[i] = rng.Next();
  }

  ExternalMergeSorter sorter(&dev_, &codec_, &cipher_, &drbg_, 64, kRun);
  for (uint64_t i = 0; i < kItems; ++i) {
    ASSERT_TRUE(sorter.AddInMemory(payloads[i], tags[i], i).ok());
  }
  ASSERT_TRUE(sorter.BeginMerge(/*dst_base=*/256).ok());
  // Adds are rejected once the merge phase is armed.
  EXPECT_FALSE(sorter.AddInMemory(payloads[0], 1, 1).ok());

  bool done = false;
  int steps = 0;
  uint64_t consumed_total = 0;
  while (!done) {
    uint64_t consumed = 0;
    ASSERT_TRUE(sorter.MergeStep(7, &done, &consumed).ok());
    consumed_total += consumed;
    ASSERT_LT(++steps, 1000) << "merge failed to converge";
    if (!done) {
      EXPECT_GT(consumed, 0u) << "stalled step";
    }
  }
  EXPECT_GT(steps, 3) << "budget 7 should take many steps for 40 items";
  EXPECT_EQ(sorter.merge_remaining_blocks(), 0u);
  // Every merge I/O was accounted to some step: total traffic minus the
  // run spills issued during the add phase.
  EXPECT_EQ(consumed_total,
            sorter.stats().reads + sorter.stats().writes - kItems);

  const std::span<const uint64_t> order = sorter.order();
  ASSERT_EQ(order.size(), kItems);
  std::set<uint64_t> seen;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(tags[order[i - 1]], tags[order[i]]);
    }
    seen.insert(order[i]);
    EXPECT_EQ(GetBlock(256 + i), payloads[order[i]]) << "slot " << i;
  }
  EXPECT_EQ(seen.size(), kItems);

  // Reset recycles the sorter for another (in-memory) re-order.
  sorter.Reset();
  EXPECT_EQ(sorter.stats().reads, 0u);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(sorter.AddInMemory(payloads[i], 100 - i, i).ok());
  }
  auto again = MergeAll(sorter, /*dst_base=*/300);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, (std::vector<uint64_t>{3, 2, 1, 0}));
}

TEST_F(ResumableMergeTest, MultiChunkRunsMergeAlikeUnderEveryBudget) {
  // Runs of 144 items span three 48-block look-ahead chunks, so a refill
  // overwrites a cursor buffer that the unflushed output chunk may still
  // point into. Budgets 1, 7 and unbounded slice the merge differently;
  // each must put the same payloads in tag order at the destination and
  // read and write the same block ids in the same order.
  constexpr uint64_t kRun = 144;
  const size_t ps = codec_.payload_size();
  Rng rng = testing::MakeTestRng();
  for (uint64_t fanin = 2; fanin <= 4; ++fanin) {
    const uint64_t items = kRun * fanin;
    std::vector<Bytes> payloads(items, Bytes(ps));
    std::vector<uint64_t> tags(items);
    // Every eighth position of a run shares its tag with the same
    // position of the other runs: the merge must emit such ties lower
    // run first.
    std::vector<uint64_t> shared(kRun);
    for (uint64_t& tag : shared) tag = rng.Next();
    for (uint64_t i = 0; i < items; ++i) {
      rng.Fill(payloads[i].data(), ps);
      tags[i] = i % 8 == 0 ? shared[i % kRun] : rng.Next();
    }

    struct Outcome {
      std::vector<uint64_t> order;
      std::vector<uint64_t> reads;
      std::vector<uint64_t> writes;
      std::vector<Bytes> slots;
    };
    const auto merge = [&](uint64_t budget) {
      Outcome out;
      storage::MemBlockDevice mem(2 * items, 4096);
      storage::TraceBlockDevice dev(&mem);
      crypto::HashDrbg drbg(uint64_t{7});
      ExternalMergeSorter sorter(&dev, &codec_, &cipher_, &drbg,
                                 /*scratch_base=*/0, kRun);
      for (uint64_t i = 0; i < items; ++i) {
        EXPECT_TRUE(sorter.AddInMemory(payloads[i], tags[i], i).ok());
      }
      EXPECT_TRUE(sorter.BeginMerge(/*dst_base=*/items).ok());
      bool done = false;
      for (int steps = 0; !done && steps < 100000; ++steps) {
        EXPECT_TRUE(sorter.MergeStep(budget, &done).ok());
      }
      EXPECT_TRUE(done) << "budget " << budget;
      out.order.assign(sorter.order().begin(), sorter.order().end());
      for (const storage::TraceEvent& e : dev.trace()) {
        (e.kind == storage::TraceEvent::Kind::kRead ? out.reads : out.writes)
            .push_back(e.block_id);
      }
      Bytes block(4096);
      for (uint64_t s = 0; s < items; ++s) {
        out.slots.emplace_back(ps);
        EXPECT_TRUE(mem.ReadBlock(items + s, block.data()).ok());
        EXPECT_TRUE(
            codec_.Open(cipher_, block.data(), out.slots.back().data()).ok());
      }
      return out;
    };

    const Outcome whole = merge(std::numeric_limits<uint64_t>::max());
    ASSERT_EQ(whole.order.size(), items) << "fan-in " << fanin;
    size_t ties = 0;
    for (uint64_t s = 0; s < items; ++s) {
      const uint64_t label = whole.order[s];
      EXPECT_EQ(whole.slots[s], payloads[label])
          << "fan-in " << fanin << " slot " << s;
      if (s == 0) continue;
      const uint64_t prev = whole.order[s - 1];
      EXPECT_LE(tags[prev], tags[label]);
      if (tags[prev] == tags[label]) {
        ++ties;
        EXPECT_LT(prev / kRun, label / kRun) << "fan-in " << fanin;
      }
    }
    EXPECT_EQ(ties, (kRun / 8) * (fanin - 1));
    // Runs spill as one sequential scratch sweep, then the destination is
    // written as another.
    std::vector<uint64_t> sweeps(2 * items);
    for (uint64_t b = 0; b < 2 * items; ++b) sweeps[b] = b;
    EXPECT_EQ(whole.writes, sweeps);
    EXPECT_EQ(whole.reads.size(), items);

    for (const uint64_t budget : {uint64_t{1}, uint64_t{7}}) {
      const Outcome sliced = merge(budget);
      EXPECT_EQ(sliced.order, whole.order) << "budget " << budget;
      EXPECT_EQ(sliced.reads, whole.reads) << "budget " << budget;
      EXPECT_EQ(sliced.writes, whole.writes) << "budget " << budget;
      EXPECT_TRUE(sliced.slots == whole.slots) << "budget " << budget;
    }
  }
}

TEST_F(ResumableMergeTest, JobRedrivesAFailedSpillWithoutReaddingItsChunk) {
  // Run size 8 after three memory inputs: the job's first device chunk is
  // five sealed images, and the spill its last add triggers fails once.
  // The failed add has taken the whole chunk, so the re-driven step
  // re-spills it and reads none of it again: every record reaches the
  // destination once, and the job reads each input once.
  constexpr uint64_t kDevice = 20;
  constexpr uint64_t kMemory = 3;
  constexpr uint64_t kRun = 8;
  constexpr uint64_t kScratch = 64;
  constexpr uint64_t kDst = 128;
  storage::FaultSpec fail;
  fail.kind = storage::FaultSpec::Kind::kTransientError;
  fail.ops = storage::FaultSpec::OpFilter::kWrite;
  fail.max_fires = 1;
  storage::FaultInjectionBlockDevice faulty(&dev_, storage::FaultPlan{{fail}});

  Rng rng = testing::MakeTestRng();
  std::map<RecordId, Bytes> payloads;
  ReorderJob::Inputs inputs;
  Bytes block(4096);
  for (uint64_t i = 0; i < kDevice + kMemory; ++i) {
    Bytes p(codec_.payload_size());
    rng.Fill(p.data(), p.size());
    const RecordId id = 1000 + i;
    payloads[id] = p;
    if (i < kDevice) {
      ASSERT_TRUE(codec_.Seal(cipher_, drbg_, p.data(), block.data()).ok());
      ASSERT_TRUE(dev_.WriteBlock(i, block.data()).ok());
      inputs.device.push_back({i, id});
    } else {
      inputs.memory.push_back({id, payloads[id].data()});
    }
  }
  ExternalMergeSorter sorter(&faulty, &codec_, &cipher_, &drbg_, kScratch,
                             kRun);
  ReorderJob job(&faulty, &codec_, &cipher_, &drbg_, &sorter);
  job.Begin(/*target_level=*/0, kDst, &inputs);
  const uint64_t unbounded = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(job.Step(unbounded).code(), StatusCode::kIoError);
  EXPECT_EQ(sorter.item_count(), kMemory + 5);
  for (int steps = 0; !job.done() && steps < 100; ++steps) {
    ASSERT_TRUE(job.Step(unbounded).ok());
  }
  ASSERT_TRUE(job.done());
  EXPECT_EQ(faulty.stats().injected_errors, 1u);
  // Inputs once, then every spilled item once by the merge.
  EXPECT_EQ(job.reads(), kDevice + (kDevice + kMemory));

  const std::span<const RecordId> order = job.order();
  ASSERT_EQ(order.size(), kDevice + kMemory);
  std::set<RecordId> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), order.size());
  for (uint64_t slot = 0; slot < order.size(); ++slot) {
    EXPECT_EQ(GetBlock(kDst + slot), payloads[order[slot]]) << "slot " << slot;
  }
}

// ---- Deamortized store ---------------------------------------------------

TEST(DeamortizedStoreTest, ShadowGeometryValidated) {
  ObliviousStoreOptions opts = DeamortOptions(4, 32, false, 5);
  storage::MemBlockDevice small(100, 4096);  // needs 56+32+56 = 144
  EXPECT_FALSE(ObliviousStore::Create(&small, opts).ok());

  storage::MemBlockDevice dev(DeviceBlocksFor(opts), 4096);
  ObliviousStoreOptions overlap = opts;
  overlap.shadow_base = 10;  // inside the hierarchy
  EXPECT_FALSE(ObliviousStore::Create(&dev, overlap).ok());
  overlap = opts;
  overlap.shadow_base = opts.scratch_base;  // on top of scratch
  EXPECT_FALSE(ObliviousStore::Create(&dev, overlap).ok());
  EXPECT_TRUE(ObliviousStore::Create(&dev, opts).ok());
}

TEST(DeamortizedStoreTest, InstallFlipsBasesIntoShadowRegion) {
  ObliviousStoreOptions opts = DeamortOptions(4, 32, false, 7);
  storage::MemBlockDevice dev(DeviceBlocksFor(opts), 4096);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const std::vector<uint64_t> primary_bases = (*store)->LevelBases();
  // First flush trigger: B inserts; drain whatever the taxes left over.
  for (uint64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(
        (*store)->Insert(id, PayloadFor(**store, static_cast<uint8_t>(id)).data()).ok());
  }
  DrainStore(**store);
  EXPECT_FALSE((*store)->reorder_pending());
  EXPECT_GE((*store)->reorder_epoch(), 1u);
  EXPECT_GE((*store)->stats().reorders, 1u);

  // The rebuilt level 1 now lives in its shadow region (ping-pong flip).
  const std::vector<uint64_t> flipped = (*store)->LevelBases();
  EXPECT_NE(flipped[0], primary_bases[0]);
  EXPECT_GE(flipped[0], opts.shadow_base);

  // Every record still readable, served off the flipped permutation.
  Bytes out((*store)->payload_size());
  for (uint64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE((*store)->Read(id, out.data()).ok());
    EXPECT_EQ(out, PayloadFor(**store, static_cast<uint8_t>(id)));
  }
}

TEST(DeamortizedStoreTest, ScansServeOldPermutationDuringRebuild) {
  ObliviousStoreOptions opts = DeamortOptions(4, 32, false, 11);
  storage::MemBlockDevice dev(DeviceBlocksFor(opts), 4096);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok());

  // Park records in the levels (deep cascades make the chains long
  // enough to outlive the per-op taxes), then catch a pending chain and
  // read everything back while it is in flight: scans must keep serving
  // correct payloads from the old permutation and the ghost snapshot.
  std::map<uint64_t, uint8_t> mirror;
  for (uint64_t id = 0; id < 24; ++id) {
    mirror[id] = static_cast<uint8_t>(id * 3 + 1);
    ASSERT_TRUE((*store)->Insert(id, PayloadFor(**store, mirror[id]).data()).ok());
  }
  DrainStore(**store);
  bool caught_pending = false;
  uint64_t next_id = 100;
  for (int round = 0; round < 16 && !caught_pending; ++round) {
    mirror[next_id] = static_cast<uint8_t>(next_id);
    ASSERT_TRUE(
        (*store)->Insert(next_id, PayloadFor(**store, mirror[next_id]).data()).ok());
    ++next_id;
    caught_pending = (*store)->reorder_pending();
  }
  ASSERT_TRUE(caught_pending) << "no chain outlived its triggering op";

  Bytes out((*store)->payload_size());
  bool observed_pending_read = false;
  for (const auto& [id, seed] : mirror) {
    if ((*store)->reorder_pending()) observed_pending_read = true;
    ASSERT_TRUE((*store)->Read(id, out.data()).ok()) << "id " << id;
    EXPECT_EQ(out, PayloadFor(**store, seed)) << "id " << id;
  }
  EXPECT_TRUE(observed_pending_read);

  // And after a full drain the same holds.
  DrainStore(**store);
  for (const auto& [id, seed] : mirror) {
    ASSERT_TRUE((*store)->Read(id, out.data()).ok());
    EXPECT_EQ(out, PayloadFor(**store, seed));
  }
}

TEST(DeamortizedStoreTest, RemoveDuringChainIsNotResurrected) {
  for (const bool strict : {false, true}) {
    SCOPED_TRACE(strict ? "strict schedule" : "deferring schedule");
    // Deep enough that a flush chain outlives a few serving taxes.
    ObliviousStoreOptions opts = DeamortOptions(4, 256, strict, 13);
    opts.reorder_step_blocks = 1;
    storage::MemBlockDevice dev(DeviceBlocksFor(opts), 4096);
    auto store = ObliviousStore::Create(&dev, opts);
    ASSERT_TRUE(store.ok());

    constexpr uint64_t kResident = 150;
    for (uint64_t id = 0; id < kResident; ++id) {
      ASSERT_TRUE((*store)->Insert(id, PayloadFor(**store, 1).data()).ok());
    }
    DrainStore(**store);
    // Trigger a chain whose snapshot includes level-resident records...
    bool caught_pending = false;
    uint64_t flush_id = 1000;
    for (int round = 0; round < 16 && !caught_pending; ++round) {
      ASSERT_TRUE(
          (*store)->Insert(flush_id, PayloadFor(**store, 2).data()).ok());
      ++flush_id;
      caught_pending = (*store)->reorder_pending();
    }
    ASSERT_TRUE(caught_pending) << "no chain outlived its triggering op";
    // No chain ran before the last insert, so its flush took the last B
    // inserts as the pending snapshot.
    ASSERT_EQ((*store)->buffer_fill(), 4u);
    const RecordId gone = flush_id - 1;
    const RecordId back = flush_id - 2;
    // ...then evict mid-flight: the tombstone must strip the ids from
    // every index the chain installs.
    ASSERT_TRUE((*store)->Remove(3).ok());
    ASSERT_TRUE((*store)->Remove(gone).ok());  // one from the snapshot too
    EXPECT_EQ((*store)->buffer_fill(), 3u);
    // A snapshot record removed and re-inserted with new content before
    // the install: the flush job still reads the old copy it was given,
    // while reads serve the new one and the fill counts it once.
    ASSERT_TRUE((*store)->Remove(back).ok());
    EXPECT_EQ((*store)->buffer_fill(), 2u);
    ASSERT_TRUE((*store)->Insert(back, PayloadFor(**store, 7).data()).ok());
    ASSERT_TRUE((*store)->reorder_pending()) << "the chain installed too early";
    EXPECT_EQ((*store)->buffer_fill(), 3u);
    Bytes out((*store)->payload_size());
    ASSERT_TRUE((*store)->Read(back, out.data()).ok());
    EXPECT_EQ(out, PayloadFor(**store, 7));
    DrainStore(**store);

    EXPECT_FALSE((*store)->Contains(3));
    EXPECT_FALSE((*store)->Contains(gone));
    EXPECT_EQ((*store)->Read(3, out.data()).code(), StatusCode::kNotFound);
    EXPECT_EQ((*store)->Read(gone, out.data()).code(), StatusCode::kNotFound);
    // Only the re-inserted copy is staged, and no level index kept an
    // entry for the old one: every other record has exactly one.
    EXPECT_EQ((*store)->buffer_fill(), 1u);
    const std::vector<uint64_t> live = (*store)->LevelOccupancy();
    uint64_t level_live = 0;
    for (const uint64_t n : live) level_live += n;
    EXPECT_EQ(level_live + 1, (*store)->record_count());
    ASSERT_TRUE((*store)->Read(back, out.data()).ok());
    EXPECT_EQ(out, PayloadFor(**store, 7));
    // Survivors intact, re-insertion works.
    for (uint64_t id = 0; id < kResident; ++id) {
      if (id == 3) continue;
      ASSERT_TRUE((*store)->Read(id, out.data()).ok()) << "id " << id;
    }
    ASSERT_TRUE((*store)->Insert(3, PayloadFor(**store, 9).data()).ok());
    ASSERT_TRUE((*store)->Read(3, out.data()).ok());
    EXPECT_EQ(out, PayloadFor(**store, 9));
    // The new copy outlives the re-orders the reads above set off.
    DrainStore(**store);
    ASSERT_TRUE((*store)->Read(back, out.data()).ok());
    EXPECT_EQ(out, PayloadFor(**store, 7));
  }
}

// Mirror soak across geometries and schedules: whatever interleaving of
// serving and incremental re-order steps occurs, contents match a
// blocking mirror.
struct SoakParam {
  uint64_t buffer;
  uint64_t capacity;
  bool strict;
};

class DeamortizedSoakTest : public ::testing::TestWithParam<SoakParam> {};

TEST_P(DeamortizedSoakTest, MatchesMirrorProperty) {
  const SoakParam param = GetParam();
  ObliviousStoreOptions opts =
      DeamortOptions(param.buffer, param.capacity, param.strict,
                     1000 + param.buffer * 10 + param.capacity);
  storage::MemBlockDevice dev(DeviceBlocksFor(opts), 4096);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  std::vector<uint8_t> mirror(param.capacity, 0);
  std::vector<uint8_t> present(param.capacity, 0);
  Bytes payload((*store)->payload_size());
  Bytes out((*store)->payload_size());
  Rng rng(opts.drbg_seed);
  for (int op = 0; op < 600; ++op) {
    const uint64_t id = rng.Uniform(param.capacity);
    const int action = static_cast<int>(rng.Uniform(5));
    if (action == 4) {
      // Random incremental stepping with random budgets, like an idle
      // dispatcher pump firing at arbitrary moments.
      ASSERT_TRUE((*store)->StepReorder(1 + rng.Uniform(64)).ok());
      continue;
    }
    if (action == 3 && present[id]) {
      ASSERT_TRUE((*store)->Remove(id).ok());
      present[id] = 0;
      continue;
    }
    if (action == 0 || !present[id]) {
      const uint8_t v = static_cast<uint8_t>(rng.Next());
      std::fill(payload.begin(), payload.end(), v);
      ASSERT_TRUE((*store)->Insert(id, payload.data()).ok()) << "op " << op;
      mirror[id] = v;
      present[id] = 1;
    } else if (action == 1) {
      const uint8_t v = static_cast<uint8_t>(rng.Next());
      std::fill(payload.begin(), payload.end(), v);
      ASSERT_TRUE((*store)->Write(id, payload.data()).ok()) << "op " << op;
      mirror[id] = v;
    } else {
      ASSERT_TRUE((*store)->Read(id, out.data()).ok()) << "op " << op;
      ASSERT_EQ(out[0], mirror[id]) << "op " << op << " id " << id;
      ASSERT_EQ(out.back(), mirror[id]);
    }
  }
  // Drain and final sweep.
  bool more = true;
  while (more) ASSERT_TRUE((*store)->StepReorder(1u << 20, &more).ok());
  for (uint64_t id = 0; id < param.capacity; ++id) {
    if (!present[id]) continue;
    ASSERT_TRUE((*store)->Read(id, out.data()).ok()) << "final id " << id;
    ASSERT_EQ(out[0], mirror[id]) << "final id " << id;
  }
  const auto stats = (*store)->stats();
  EXPECT_GT(stats.reorders, 0u);
  // Shallow hierarchies (< 3 levels) auto-fall back to blocking
  // re-orders; incremental steps only happen on deep ones.
  const bool deep = (*store)->height() >= 3;
  if (!param.strict && deep) {
    EXPECT_GT(stats.reorder_steps, 0u);
  }
  if (!deep) {
    EXPECT_EQ(stats.reorder_steps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, DeamortizedSoakTest,
    ::testing::Values(SoakParam{4, 32, false}, SoakParam{4, 32, true},
                      SoakParam{4, 64, false}, SoakParam{8, 64, true},
                      SoakParam{1, 16, false}, SoakParam{16, 32, false}));

// Only a level above the 256-record run floor spills runs longer than the
// 48-block merge chunk, so only there does a merge refill a cursor whose
// earlier payloads may still wait in the output chunk. Soak a store whose
// bottom level re-orders more than 512 records (fan-in 3 and up) against
// a mirror, under both schedules.
class LargeReorderSoakTest : public ::testing::TestWithParam<bool> {};

TEST_P(LargeReorderSoakTest, MatchesMirrorProperty) {
  const bool deamortize = GetParam();
  constexpr uint64_t kB = 16, kN = 1024;
  ObliviousStoreOptions opts = DeamortOptions(kB, kN, false, 5150);
  opts.deamortize_reorders = deamortize;
  opts.reorder_step_blocks = 64;
  storage::MemBlockDevice dev(DeviceBlocksFor(opts), 4096);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  std::vector<uint8_t> mirror(kN, 0);
  std::vector<uint8_t> present(kN, 0);
  Bytes payload((*store)->payload_size());
  Bytes out((*store)->payload_size());
  uint64_t bottom_max = 0;
  const auto insert = [&](RecordId id, uint8_t v) {
    std::fill(payload.begin(), payload.end(), v);
    ASSERT_TRUE((*store)->Insert(id, payload.data()).ok()) << "id " << id;
    mirror[id] = v;
    present[id] = 1;
  };
  for (RecordId id = 0; id < 900; ++id) {
    insert(id, static_cast<uint8_t>(id * 7));
    bottom_max = std::max(bottom_max, (*store)->LevelOccupancy().back());
  }
  Rng rng(opts.drbg_seed);
  for (int op = 0; op < 1500; ++op) {
    const RecordId id = rng.Uniform(kN);
    const int action = static_cast<int>(rng.Uniform(6));
    if (action == 5) {
      ASSERT_TRUE((*store)->StepReorder(1 + rng.Uniform(256)).ok());
    } else if (action == 4 && present[id]) {
      ASSERT_TRUE((*store)->Remove(id).ok());
      present[id] = 0;
    } else if (!present[id]) {
      insert(id, static_cast<uint8_t>(rng.Next()));
    } else if (action == 3) {
      const uint8_t v = static_cast<uint8_t>(rng.Next());
      std::fill(payload.begin(), payload.end(), v);
      ASSERT_TRUE((*store)->Write(id, payload.data()).ok()) << "op " << op;
      mirror[id] = v;
    } else {
      ASSERT_TRUE((*store)->Read(id, out.data()).ok()) << "op " << op;
      ASSERT_EQ(out[0], mirror[id]) << "op " << op << " id " << id;
      ASSERT_EQ(out.back(), mirror[id]) << "op " << op << " id " << id;
    }
    bottom_max = std::max(bottom_max, (*store)->LevelOccupancy().back());
  }
  DrainStore(**store);
  for (RecordId id = 0; id < kN; ++id) {
    if (!present[id]) continue;
    ASSERT_TRUE((*store)->Read(id, out.data()).ok()) << "final id " << id;
    ASSERT_EQ(out[0], mirror[id]) << "final id " << id;
    ASSERT_EQ(out.back(), mirror[id]) << "final id " << id;
  }
  EXPECT_GT(bottom_max, 512u) << "the bottom level never re-ordered > 512";
  if (deamortize) {
    EXPECT_GT((*store)->stats().reorder_steps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, LargeReorderSoakTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Deamortized" : "Blocking";
                         });

TEST(DeamortizedStoreTest, DeferralCoalescesFlushes) {
  // Same grouped churn (the dispatcher's shape: MultiRead groups of B)
  // on a blocking twin and a deferring deamortized store, over a
  // hierarchy deep enough for coalesced flush sets (limit 4B) to fold
  // level 1: the deamortized store must issue far fewer flushes and
  // strictly less re-order I/O — coalesced records skip upper-level
  // rewrites. (Under k = 1 trickle serving the volumes are a wash; the
  // coalescing win is a function of staging rate, by design.)
  const uint64_t kB = 16, kN = 256;
  const auto churn = [&](ObliviousStore& store) {
    Bytes payload(store.payload_size());
    Rng rng(4242);
    for (uint64_t id = 0; id < kN; ++id) {
      std::fill(payload.begin(), payload.end(), static_cast<uint8_t>(id));
      EXPECT_TRUE(store.Insert(id, payload.data()).ok());
    }
    std::vector<RecordId> ids(kB);
    Bytes outs(kB * store.payload_size());
    for (int op = 0; op < 40; ++op) {
      for (RecordId& id : ids) id = rng.Uniform(kN);
      EXPECT_TRUE(store.MultiRead(ids, outs.data()).ok()) << "op " << op;
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(outs[i * store.payload_size()], static_cast<uint8_t>(ids[i]))
            << "op " << op << " request " << i;
      }
    }
    // Count the tail chain's I/O too: the comparison is total volume,
    // not just what landed inside the serving window.
    bool more = true;
    int iters = 0;
    while (more) {
      EXPECT_TRUE(store.StepReorder(1u << 20, &more).ok());
      if (++iters > 10000) break;
    }
  };

  ObliviousStoreOptions blocking_opts = DeamortOptions(kB, kN, false, 21);
  blocking_opts.deamortize_reorders = false;
  storage::MemBlockDevice blocking_dev(DeviceBlocksFor(blocking_opts), 4096);
  auto blocking = ObliviousStore::Create(&blocking_dev, blocking_opts);
  ASSERT_TRUE(blocking.ok());
  churn(**blocking);

  ObliviousStoreOptions deamort_opts = DeamortOptions(kB, kN, false, 21);
  storage::MemBlockDevice deamort_dev(DeviceBlocksFor(deamort_opts), 4096);
  auto deamort = ObliviousStore::Create(&deamort_dev, deamort_opts);
  ASSERT_TRUE(deamort.ok());
  churn(**deamort);

  const auto bs = (*blocking)->stats();
  const auto ds = (*deamort)->stats();
  EXPECT_GT(ds.deferred_flushes, 0u);
  EXPECT_LT(ds.buffer_flushes, bs.buffer_flushes);
  EXPECT_LT(ds.reorder_reads + ds.reorder_writes,
            bs.reorder_reads + bs.reorder_writes);
}

// ---- Trace equivalence (the acceptance pin) -------------------------------

struct RegionCounts {
  uint64_t reads = 0;
  uint64_t writes = 0;
};

// Maps a block to its level (either region: primary or shadow mirror) or
// to the scratch partition (level count), folding the double-buffered
// layout back onto the logical hierarchy.
size_t RegionOf(uint64_t block, const ObliviousStoreOptions& opts) {
  const uint64_t hierarchy = 2 * opts.capacity_blocks - 2 * opts.buffer_blocks;
  uint64_t offset = ~uint64_t{0};
  if (block >= opts.partition_base && block < opts.partition_base + hierarchy) {
    offset = block - opts.partition_base;
  } else if (opts.deamortize_reorders && block >= opts.shadow_base &&
             block < opts.shadow_base + hierarchy) {
    offset = block - opts.shadow_base;
  } else {
    return SIZE_MAX;  // scratch / out of range
  }
  size_t level = 0;
  for (uint64_t cap = 2 * opts.buffer_blocks; offset >= cap; cap *= 2) {
    offset -= cap;
    ++level;
  }
  return level;
}

TEST(DeamortizedTraceTest, StrictScheduleKeepsBlockingTouchCounts) {
  // Identical request schedule (inserts, reads, hidden updates) against
  // a blocking store and a strict-schedule deamortized store. Pin: per
  // level, the combined serving-probe + re-order-sweep read count and
  // the re-order write count are equal request for request; re-order
  // writes stay the sequential region sweep; scratch traffic matches.
  const uint64_t kB = 4, kN = 64;
  const auto schedule = [](ObliviousStore& store,
                           std::vector<std::vector<RegionCounts>>& per_op,
                           storage::TraceBlockDevice& trace,
                           const ObliviousStoreOptions& opts) {
    const int levels = store.height();
    Bytes payload(store.payload_size());
    Bytes out(store.payload_size());
    Rng rng(777);
    const auto run_op = [&](const std::function<void()>& op) {
      trace.ClearTrace();
      op();
      std::vector<RegionCounts> counts(levels + 1);
      for (const storage::TraceEvent& ev : trace.trace()) {
        size_t region = RegionOf(ev.block_id, opts);
        if (region == SIZE_MAX) region = levels;  // scratch bucket
        ASSERT_LE(region, static_cast<size_t>(levels));
        if (ev.kind == storage::TraceEvent::Kind::kRead) {
          ++counts[region].reads;
        } else {
          ++counts[region].writes;
        }
      }
      per_op.push_back(std::move(counts));
    };
    for (uint64_t id = 0; id < 48; ++id) {
      std::fill(payload.begin(), payload.end(), static_cast<uint8_t>(id));
      run_op([&] { ASSERT_TRUE(store.Insert(id, payload.data()).ok()); });
    }
    for (int op = 0; op < 200; ++op) {
      const uint64_t id = rng.Uniform(48);
      if (rng.Bernoulli(0.25)) {
        std::fill(payload.begin(), payload.end(), static_cast<uint8_t>(op));
        run_op([&] { ASSERT_TRUE(store.Write(id, payload.data()).ok()); });
      } else {
        run_op([&] { ASSERT_TRUE(store.Read(id, out.data()).ok()); });
      }
    }
  };

  ObliviousStoreOptions blocking_opts = DeamortOptions(kB, kN, true, 31);
  blocking_opts.deamortize_reorders = false;
  storage::MemBlockDevice blocking_mem(DeviceBlocksFor(blocking_opts) + 120,
                                       4096);
  storage::TraceBlockDevice blocking_trace(&blocking_mem);
  auto blocking = ObliviousStore::Create(&blocking_trace, blocking_opts);
  ASSERT_TRUE(blocking.ok());
  std::vector<std::vector<RegionCounts>> blocking_ops;
  schedule(**blocking, blocking_ops, blocking_trace, blocking_opts);

  ObliviousStoreOptions strict_opts = DeamortOptions(kB, kN, true, 31);
  storage::MemBlockDevice strict_mem(DeviceBlocksFor(strict_opts), 4096);
  storage::TraceBlockDevice strict_trace(&strict_mem);
  auto strict = ObliviousStore::Create(&strict_trace, strict_opts);
  ASSERT_TRUE(strict.ok());
  std::vector<std::vector<RegionCounts>> strict_ops;
  schedule(**strict, strict_ops, strict_trace, strict_opts);

  // Drain the strict store's trailing chain — blocking did all its work
  // inline, so the comparison must include the strict schedule's last
  // increments — counting that I/O into the same buckets.
  ASSERT_EQ(blocking_ops.size(), strict_ops.size());
  const size_t buckets = blocking_ops.front().size();
  std::vector<RegionCounts> blocking_sum(buckets), strict_sum(buckets);
  strict_trace.ClearTrace();
  DrainStore(**strict);
  for (const storage::TraceEvent& ev : strict_trace.trace()) {
    size_t region = RegionOf(ev.block_id, strict_opts);
    if (region == SIZE_MAX) region = buckets - 1;  // scratch bucket
    if (ev.kind == storage::TraceEvent::Kind::kRead) {
      ++strict_sum[region].reads;
    } else {
      ++strict_sum[region].writes;
    }
  }

  // The strict schedule keeps the blocking flush trigger points, so the
  // chain work of flush n always completes before flush n+1 begins —
  // the same window blocking executes it in. Summed over the schedule,
  // the per-level touch multiset (read and write counts against either
  // of a level's regions, plus scratch) must therefore be *identical*:
  // deamortizing re-orders the interleaving without changing what is
  // touched per level — the §5.1.2 obliviousness argument.
  for (size_t op = 0; op < blocking_ops.size(); ++op) {
    for (size_t r = 0; r < buckets; ++r) {
      blocking_sum[r].reads += blocking_ops[op][r].reads;
      blocking_sum[r].writes += blocking_ops[op][r].writes;
      strict_sum[r].reads += strict_ops[op][r].reads;
      strict_sum[r].writes += strict_ops[op][r].writes;
    }
  }
  for (size_t r = 0; r < buckets; ++r) {
    EXPECT_EQ(blocking_sum[r].reads, strict_sum[r].reads)
        << (r + 1 > static_cast<size_t>((*blocking)->height())
                ? "scratch"
                : "level")
        << " " << r + 1 << " read count";
    EXPECT_EQ(blocking_sum[r].writes, strict_sum[r].writes)
        << (r + 1 > static_cast<size_t>((*blocking)->height())
                ? "scratch"
                : "level")
        << " " << r + 1 << " write count";
  }

  const auto bstats = (*blocking)->stats();
  const auto sstats = (*strict)->stats();
  EXPECT_EQ(bstats.buffer_flushes, sstats.buffer_flushes);
  EXPECT_EQ(bstats.reorders, sstats.reorders);
  EXPECT_EQ(bstats.level_probe_reads, sstats.level_probe_reads);
  EXPECT_EQ(bstats.scan_passes, sstats.scan_passes);
  EXPECT_EQ(bstats.reorder_reads, sstats.reorder_reads);
  EXPECT_EQ(bstats.reorder_writes, sstats.reorder_writes);
}

TEST(DeamortizedTraceTest, ReorderWritesAreSequentialRegionSweeps) {
  // The data-independence half of the obliviousness argument: every
  // write a deamortized re-order issues to a level region continues a
  // sequential sweep from the region's base (ascending, no holes), no
  // matter how serving interleaves with the chain.
  ObliviousStoreOptions opts = DeamortOptions(4, 32, false, 41);
  storage::MemBlockDevice mem(DeviceBlocksFor(opts), 4096);
  storage::TraceBlockDevice trace(&mem);
  auto store = ObliviousStore::Create(&trace, opts);
  ASSERT_TRUE(store.ok());

  Bytes payload((*store)->payload_size());
  Bytes out((*store)->payload_size());
  Rng rng(99);
  for (uint64_t id = 0; id < 32; ++id) {
    std::fill(payload.begin(), payload.end(), static_cast<uint8_t>(id));
    ASSERT_TRUE((*store)->Insert(id, payload.data()).ok());
  }
  for (int op = 0; op < 200; ++op) {
    ASSERT_TRUE((*store)->Read(rng.Uniform(32), out.data()).ok());
    if (op % 3 == 0) {
      ASSERT_TRUE((*store)->StepReorder(8).ok());
    }
  }

  const uint64_t hierarchy = 2 * opts.capacity_blocks - 2 * opts.buffer_blocks;
  const auto region_start = [&](uint64_t block) -> uint64_t {
    // Start block of the (primary or shadow) region containing `block`.
    const uint64_t origin = block < hierarchy ? 0 : opts.shadow_base;
    uint64_t offset = block - origin;
    uint64_t start = origin;
    for (uint64_t cap = 2 * opts.buffer_blocks; offset >= cap; cap *= 2) {
      offset -= cap;
      start += cap;
    }
    return start;
  };
  std::map<uint64_t, uint64_t> next_expected;  // region start -> next offset
  for (const storage::TraceEvent& ev : trace.trace()) {
    if (ev.kind != storage::TraceEvent::Kind::kWrite) continue;
    if (RegionOf(ev.block_id, opts) == SIZE_MAX) continue;  // scratch
    const uint64_t start = region_start(ev.block_id);
    const uint64_t offset = ev.block_id - start;
    auto [it, inserted] = next_expected.try_emplace(start, 0);
    if (offset != it->second) {
      // A new sweep may restart at the region base.
      ASSERT_EQ(offset, 0u) << "non-sequential re-order write at block "
                            << ev.block_id;
      it->second = 0;
    }
    it->second = offset + 1;
  }
  EXPECT_FALSE(next_expected.empty());
}

}  // namespace
}  // namespace steghide::oblivious
