// Suite for the sharded storage layer: ShardedBlockDevice striping,
// issuing on the calling thread in shard order, error reporting,
// vectored split order, per-shard trace spans and parallel-clock
// accounting, and — the headline pin — per-shard trace equivalence: an
// oblivious store over K traced shards produces, on each shard, exactly
// the single-volume schedule restricted to that shard's residue class.
// The dispatcher stress test is the tsan/sanitize target for the sharded
// serving path (K=4 configuration).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "agent/dispatch/request_dispatcher.h"
#include "agent/oblivious_agent.h"
#include "obs/trace_log.h"
#include "storage/fault_device.h"
#include "storage/mem_block_device.h"
#include "storage/sim_device.h"
#include "storage/trace_device.h"
#include "storage/volume_set.h"
#include "testing/golden.h"
#include "workload/concurrency.h"

namespace steghide::storage {
namespace {

using steghide::testing::FillGolden;
using steghide::testing::GoldenBlock;

// ---- ShardedBlockDevice ------------------------------------------------

struct ShardedFixture {
  explicit ShardedFixture(size_t shards, uint64_t per_shard_blocks,
                          size_t block_size = 512)
      : block_size_(block_size) {
    std::vector<BlockDevice*> tops;
    for (size_t k = 0; k < shards; ++k) {
      mems.push_back(
          std::make_unique<MemBlockDevice>(per_shard_blocks, block_size));
      tops.push_back(mems.back().get());
    }
    device = std::make_unique<ShardedBlockDevice>(std::move(tops));
  }

  size_t block_size_;
  std::vector<std::unique_ptr<MemBlockDevice>> mems;
  std::unique_ptr<ShardedBlockDevice> device;
};

TEST(ShardedBlockDeviceTest, StripesGlobalBlocksRoundRobin) {
  ShardedFixture fx(4, 8);
  EXPECT_EQ(fx.device->num_blocks(), 32u);
  EXPECT_EQ(fx.device->shard_count(), 4u);
  for (uint64_t g : {0u, 1u, 5u, 18u, 31u}) {
    EXPECT_EQ(fx.device->GlobalBlock(
                  static_cast<size_t>(fx.device->ShardOf(g)),
                  fx.device->LocalBlock(g)),
              g);
  }
  // Write global block 13 and find it at shard 13 % 4 = 1, local 3.
  const Bytes image = GoldenBlock(5, 13, 512);
  ASSERT_TRUE(fx.device->WriteBlock(13, image.data()).ok());
  EXPECT_TRUE(steghide::testing::BlockEquals(*fx.mems[1], 3, image));
}

TEST(ShardedBlockDeviceTest, SingleBlockRoundTripAcrossAllShards) {
  ShardedFixture fx(3, 8);
  for (uint64_t g = 0; g < fx.device->num_blocks(); ++g) {
    const Bytes image = GoldenBlock(9, g, 512);
    ASSERT_TRUE(fx.device->WriteBlock(g, image.data()).ok());
  }
  for (uint64_t g = 0; g < fx.device->num_blocks(); ++g) {
    Bytes out(512);
    ASSERT_TRUE(fx.device->ReadBlock(g, out.data()).ok());
    EXPECT_EQ(out, GoldenBlock(9, g, 512)) << "block " << g;
  }
}

TEST(ShardedBlockDeviceTest, VectoredFanOutScattersAndGathers) {
  ShardedFixture fx(4, 16);
  // Scattered ids spanning every shard, in non-monotone order, with the
  // caller's buffer laid out in submission order.
  const std::vector<uint64_t> ids = {7, 0, 21, 2, 63, 12, 33, 5};
  Bytes data;
  for (uint64_t id : ids) {
    const Bytes block = GoldenBlock(31, id, 512);
    data.insert(data.end(), block.begin(), block.end());
  }
  ASSERT_TRUE(fx.device->WriteBlocks(ids, data.data()).ok());
  Bytes out(ids.size() * 512);
  ASSERT_TRUE(fx.device->ReadBlocks(ids, out.data()).ok());
  EXPECT_EQ(out, data);
  // Spot-check physical placement of one id per shard.
  for (uint64_t id : {0u, 21u, 7u, 2u}) {
    EXPECT_TRUE(steghide::testing::BlockEquals(
        *fx.mems[id % 4], id / 4, GoldenBlock(31, id, 512)))
        << "global " << id;
  }
}

TEST(ShardedBlockDeviceTest, OutOfRangeFailsAcrossTheJoin) {
  ShardedFixture fx(2, 4);  // 8 global blocks
  Bytes out(2 * 512);
  const std::vector<uint64_t> ids = {1, 9};
  EXPECT_EQ(fx.device->ReadBlocks(ids, out.data()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(fx.device->ReadBlock(8, out.data()).code(),
            StatusCode::kOutOfRange);
}

TEST(ShardedBlockDeviceTest, ParallelClockChargesSlowestShardOfJoin) {
  // K sims over K mems; a fan-out touching all shards advances the
  // parallel clock by the max per-shard delta, strictly less than the
  // sum a single spindle would pay.
  constexpr size_t kShards = 4;
  std::vector<std::unique_ptr<MemBlockDevice>> mems;
  std::vector<std::unique_ptr<SimBlockDevice>> sims;
  std::vector<BlockDevice*> tops;
  for (size_t k = 0; k < kShards; ++k) {
    mems.push_back(std::make_unique<MemBlockDevice>(64, 512));
    sims.push_back(
        std::make_unique<SimBlockDevice>(mems.back().get(), DiskModelParams{}));
    tops.push_back(sims.back().get());
  }
  ShardedBlockDevice device(std::move(tops));
  auto* sims_ptr = &sims;
  device.set_shard_clock_fn(
      [sims_ptr](size_t k) { return (*sims_ptr)[k]->clock_ms(); });

  // 32 blocks striped over 4 shards: 8 per shard.
  std::vector<uint64_t> ids;
  for (uint64_t g = 0; g < 32; ++g) ids.push_back(g);
  Bytes out(ids.size() * 512);
  ASSERT_TRUE(device.ReadBlocks(ids, out.data()).ok());

  double sum = 0.0, max_shard = 0.0;
  for (size_t k = 0; k < kShards; ++k) {
    sum += sims[k]->clock_ms();
    max_shard = std::max(max_shard, sims[k]->clock_ms());
  }
  EXPECT_GT(device.clock_ms(), 0.0);
  EXPECT_GE(device.clock_ms(), max_shard - 1e-9);
  EXPECT_LT(device.clock_ms(), sum);
  // Every shard actually worked, so the parallel clock beats the serial
  // sum by roughly the shard count.
  EXPECT_LT(device.clock_ms(), 0.5 * sum);
}

// ---- Issuing: calling thread, shard order, errors ----------------------

/// Mem-backed shard that records the thread and op of every call and can
/// be told to fail every call with `fail`.
class RecordingDevice : public BlockDevice {
 public:
  RecordingDevice() : mem_(16, 512) {}

  using BlockDevice::ReadBlock;
  using BlockDevice::WriteBlock;

  Status ReadBlock(uint64_t block_id, uint8_t* out) override {
    return Record("read", mem_.ReadBlock(block_id, out));
  }
  Status WriteBlock(uint64_t block_id, const uint8_t* data) override {
    return Record("write", mem_.WriteBlock(block_id, data));
  }
  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override {
    return Record("readv", mem_.ReadBlocks(ids, out));
  }
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override {
    return Record("writev", mem_.WriteBlocks(ids, data));
  }
  Status Flush() override { return Record("flush", mem_.Flush()); }
  uint64_t num_blocks() const override { return mem_.num_blocks(); }
  size_t block_size() const override { return mem_.block_size(); }

  std::vector<std::string> ops;
  std::vector<std::thread::id> threads;
  Status fail;

 private:
  Status Record(const char* op, Status status) {
    ops.push_back(op);
    threads.push_back(std::this_thread::get_id());
    return fail.ok() ? status : fail;
  }

  MemBlockDevice mem_;
};

struct RecordingFixture {
  explicit RecordingFixture(size_t count) : shards(count) {
    std::vector<BlockDevice*> tops;
    for (RecordingDevice& shard : this->shards) tops.push_back(&shard);
    device = std::make_unique<ShardedBlockDevice>(std::move(tops));
  }

  std::vector<RecordingDevice> shards;
  std::unique_ptr<ShardedBlockDevice> device;
};

TEST(ShardedBlockDeviceTest, IssuesEveryShardOnTheCallingThread) {
  RecordingFixture fx(4);
  Bytes buf(8 * 512, 0x3c);
  const std::vector<uint64_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(fx.device->WriteBlock(5, buf.data()).ok());
  ASSERT_TRUE(fx.device->ReadBlock(6, buf.data()).ok());
  ASSERT_TRUE(fx.device->WriteBlocks(all, buf.data()).ok());
  ASSERT_TRUE(fx.device->ReadBlocks(all, buf.data()).ok());
  ASSERT_TRUE(fx.device->Flush().ok());
  for (size_t k = 0; k < 4; ++k) {
    std::vector<std::string> expected = {"writev", "readv", "flush"};
    if (k == 2) expected.insert(expected.begin(), "readv");
    if (k == 1) expected.insert(expected.begin(), "writev");
    EXPECT_EQ(fx.shards[k].ops, expected) << "shard " << k;
    for (const std::thread::id& id : fx.shards[k].threads) {
      EXPECT_EQ(id, std::this_thread::get_id()) << "shard " << k;
    }
  }
}

TEST(ShardedBlockDeviceTest, ReportsFirstErrorInShardOrder) {
  // Shards 1 and 3 fail: every shard's part is still issued, and the
  // error is shard 1's.
  RecordingFixture fx(4);
  fx.shards[1].fail = Status::IoError("shard 1 failed");
  fx.shards[3].fail = Status::Corruption("shard 3 failed");
  const std::vector<uint64_t> ids = {3, 2, 1, 0};
  Bytes out(ids.size() * 512);
  const Status status = fx.device->ReadBlocks(ids, out.data());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(status.message(), "shard 1 failed");
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(fx.shards[k].ops, std::vector<std::string>{"readv"})
        << "shard " << k;
  }
  EXPECT_EQ(fx.device->Flush().message(), "shard 1 failed");
  EXPECT_EQ(fx.shards[3].ops.back(), "flush");
}

TEST(ShardedBlockDeviceTest, UntouchedShardsSeeNothing) {
  RecordingFixture fx(4);
  // Globals 1, 5 and 3 live on shards 1 and 3 only.
  const std::vector<uint64_t> ids = {1, 5, 3};
  Bytes buf(ids.size() * 512);
  ASSERT_TRUE(fx.device->ReadBlocks(ids, buf.data()).ok());
  ASSERT_TRUE(fx.device->ReadBlock(2, buf.data()).ok());
  EXPECT_TRUE(fx.shards[0].ops.empty());
  EXPECT_EQ(fx.shards[1].ops, std::vector<std::string>{"readv"});
  EXPECT_EQ(fx.shards[2].ops, std::vector<std::string>{"readv"});
  EXPECT_EQ(fx.shards[3].ops, std::vector<std::string>{"readv"});
}

TEST(ShardedBlockDeviceTest, FailedShardDoesNotFailLaterCalls) {
  // A vectored read fails once on shard 2. The error belongs to that
  // call: later calls that do not touch shard 2 must not return it.
  std::vector<std::unique_ptr<MemBlockDevice>> mems;
  std::vector<std::unique_ptr<FaultInjectionBlockDevice>> faults;
  std::vector<BlockDevice*> tops;
  for (size_t k = 0; k < 4; ++k) {
    mems.push_back(std::make_unique<MemBlockDevice>(8, 512));
    FaultPlan plan;
    if (k == 2) {
      FaultSpec once;
      once.kind = FaultSpec::Kind::kTransientError;
      once.ops = FaultSpec::OpFilter::kRead;
      once.max_fires = 1;
      plan.faults.push_back(once);
    }
    faults.push_back(std::make_unique<FaultInjectionBlockDevice>(
        mems.back().get(), plan));
    tops.push_back(faults.back().get());
  }
  ShardedBlockDevice device(std::move(tops));

  const std::vector<uint64_t> ids = {0, 1, 2, 3};
  Bytes out(ids.size() * 512);
  EXPECT_EQ(device.ReadBlocks(ids, out.data()).code(), StatusCode::kIoError);
  EXPECT_TRUE(device.ReadBlock(0, out.data()).ok());
  EXPECT_TRUE(device.ReadBlock(4, out.data()).ok());
  const std::vector<uint64_t> others = {1, 3, 7};
  EXPECT_TRUE(device.ReadBlocks(others, out.data()).ok());
  EXPECT_TRUE(device.ReadBlocks(ids, out.data()).ok());
}

// ---- Vectored fan-out over traced shards --------------------------------

struct TracedShardedFixture {
  explicit TracedShardedFixture(size_t shards, uint64_t per_shard_blocks,
                                size_t block_size = 512) {
    std::vector<BlockDevice*> tops;
    for (size_t k = 0; k < shards; ++k) {
      mems.push_back(
          std::make_unique<MemBlockDevice>(per_shard_blocks, block_size));
      traces.push_back(std::make_unique<TraceBlockDevice>(mems.back().get()));
      tops.push_back(traces.back().get());
    }
    device = std::make_unique<ShardedBlockDevice>(std::move(tops));
  }

  std::vector<std::unique_ptr<MemBlockDevice>> mems;
  std::vector<std::unique_ptr<TraceBlockDevice>> traces;
  std::unique_ptr<ShardedBlockDevice> device;
};

TEST(ShardedBlockDeviceTest, VectoredReadKeepsPerShardSubmissionOrder) {
  // The oblivious store reads a whole scan sweep with one call; each
  // shard must see its part verbatim, duplicates included — a dropped
  // duplicate would be an observably missing decoy.
  TracedShardedFixture fx(2, 32);
  ASSERT_TRUE(FillGolden(*fx.mems[0], 2).ok());
  ASSERT_TRUE(FillGolden(*fx.mems[1], 3).ok());
  const std::vector<uint64_t> ids = {9, 4, 13, 6, 9, 2};
  Bytes out(ids.size() * 512);
  ASSERT_TRUE(fx.device->ReadBlocks(ids, out.data()).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t shard = ids[i] % 2;
    EXPECT_EQ(Bytes(out.begin() + i * 512, out.begin() + (i + 1) * 512),
              GoldenBlock(2 + shard, ids[i] / 2, 512))
        << "position " << i;
  }
  // Shard 0 (even globals): 4, 6, 2 -> locals 2, 3, 1 in that order.
  const IoTrace expect0 = {{TraceEvent::Kind::kRead, 2},
                           {TraceEvent::Kind::kRead, 3},
                           {TraceEvent::Kind::kRead, 1}};
  // Shard 1 (odd globals): 9, 13, 9 -> locals 4, 6, 4, duplicate intact.
  const IoTrace expect1 = {{TraceEvent::Kind::kRead, 4},
                           {TraceEvent::Kind::kRead, 6},
                           {TraceEvent::Kind::kRead, 4}};
  EXPECT_EQ(fx.traces[0]->trace(), expect0);
  EXPECT_EQ(fx.traces[1]->trace(), expect1);
}

TEST(ShardedBlockDeviceTest, WriteThenReadRoundsThroughTheFacade) {
  // Repeated vectored writes and reads through one reused staging
  // buffer: every round must read back exactly what it wrote.
  ShardedFixture fx(4, 64);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint64_t> ids;
    Bytes images;
    for (uint64_t i = 0; i < 16; ++i) {
      ids.push_back(i);
      const Bytes image = GoldenBlock(round, i, 512);
      images.insert(images.end(), image.begin(), image.end());
    }
    ASSERT_TRUE(fx.device->WriteBlocks(ids, images.data()).ok());
    Bytes out(16 * 512);
    ASSERT_TRUE(fx.device->ReadBlocks(ids, out.data()).ok());
    for (uint64_t i = 0; i < 16; ++i) {
      ASSERT_EQ(Bytes(out.begin() + i * 512, out.begin() + (i + 1) * 512),
                GoldenBlock(round, i, 512))
          << "round " << round << " block " << i;
    }
  }
}

TEST(ShardedBlockDeviceTest, TraceEmitsOneDrainSpanPerInvolvedShard) {
  ShardedFixture fx(4, 16);
  obs::TraceLog log;
  log.set_enabled(true);
  fx.device->set_trace(&log);
  // Globals 1, 5, 9 live on shard 1 and 3 on shard 3; shards 0 and 2
  // take no part in the call.
  const std::vector<uint64_t> ids = {1, 3, 5, 9};
  Bytes out(ids.size() * 512);
  ASSERT_TRUE(fx.device->ReadBlocks(ids, out.data()).ok());

  const std::vector<std::string> tracks = log.tracks();
  std::map<std::string, int64_t> reqs_by_track;
  for (const obs::TraceEvent& ev : log.events()) {
    ASSERT_EQ(ev.kind, obs::TraceEvent::Kind::kSpan);
    EXPECT_STREQ(ev.label(), "io.drain");
    ASSERT_LT(ev.track, tracks.size());
    ASSERT_EQ(ev.num_args, 1);
    EXPECT_STREQ(ev.args[0].key, "reqs");
    EXPECT_EQ(reqs_by_track.count(tracks[ev.track]), 0u);
    reqs_by_track[tracks[ev.track]] = ev.args[0].value;
  }
  const std::map<std::string, int64_t> expected = {{"io/shard1", 3},
                                                   {"io/shard3", 1}};
  EXPECT_EQ(reqs_by_track, expected);

  // Detached: no further spans.
  fx.device->set_trace(nullptr);
  ASSERT_TRUE(fx.device->ReadBlocks(ids, out.data()).ok());
  EXPECT_EQ(log.events().size(), 2u);
}

}  // namespace
}  // namespace steghide::storage

// ---- Per-shard trace equivalence over the full oblivious stack ---------

namespace steghide::agent {
namespace {

using storage::IoTrace;
using storage::TraceEvent;

oblivious::ObliviousStoreOptions StoreOptions(bool deamortize) {
  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = 8;
  opts.capacity_blocks = 128;  // levels 16, 32, 64, 128
  opts.partition_base = 0;
  opts.scratch_base = 2 * 128 - 2 * 8;  // 240
  opts.drbg_seed = 41;
  if (deamortize) {
    opts.deamortize_reorders = true;
    opts.shadow_base = 240 + 128;  // behind scratch, mirrors hierarchy
    opts.reorder_step_blocks = 1;
  }
  return opts;
}

/// Single-volume twin: one traced cache device under the agent.
struct SingleVolumeSystem {
  explicit SingleVolumeSystem(uint64_t seed, bool deamortize)
      : steg_mem(4096, 4096),
        cache_mem(768, 4096),
        cache_traced(&cache_mem),
        core(&steg_mem, stegfs::StegFsOptions{seed, true}) {
    EXPECT_TRUE(core.Format().ok());
    auto created =
        ObliviousAgent::Create(&core, &cache_traced, StoreOptions(deamortize));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    agent = std::move(created).value();
    EXPECT_TRUE(agent->CreateDummyFile("u", 600).ok());
  }

  storage::MemBlockDevice steg_mem;
  storage::MemBlockDevice cache_mem;
  storage::TraceBlockDevice cache_traced;
  stegfs::StegFsCore core;
  std::unique_ptr<ObliviousAgent> agent;
};

/// Sharded twin: same geometry, cache striped over K traced shards.
struct ShardedVolumeSystem {
  explicit ShardedVolumeSystem(uint64_t seed, bool deamortize, size_t shards)
      : steg_mem(4096, 4096),
        core(&steg_mem, stegfs::StegFsOptions{seed, true}) {
    std::vector<storage::BlockDevice*> tops;
    for (size_t k = 0; k < shards; ++k) {
      mems.push_back(std::make_unique<storage::MemBlockDevice>(
          (768 + shards - 1) / shards, 4096));
      traces.push_back(
          std::make_unique<storage::TraceBlockDevice>(mems.back().get()));
      tops.push_back(traces.back().get());
    }
    cache = std::make_unique<storage::ShardedBlockDevice>(std::move(tops));
    EXPECT_TRUE(core.Format().ok());
    auto created =
        ObliviousAgent::Create(&core, cache.get(), StoreOptions(deamortize));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    agent = std::move(created).value();
    EXPECT_TRUE(agent->CreateDummyFile("u", 600).ok());
  }

  storage::MemBlockDevice steg_mem;
  std::vector<std::unique_ptr<storage::MemBlockDevice>> mems;
  std::vector<std::unique_ptr<storage::TraceBlockDevice>> traces;
  std::unique_ptr<storage::ShardedBlockDevice> cache;
  stegfs::StegFsCore core;
  std::unique_ptr<ObliviousAgent> agent;
};

/// Runs the identical op mix against an agent: populate `files` hidden
/// files, then interleave reads and overwrites to force level appends,
/// re-orders (or re-order chains) and scans.
template <typename Sys>
std::vector<ObliviousAgent::FileId> DriveWorkload(Sys& sys, size_t files,
                                                  size_t blocks) {
  std::vector<ObliviousAgent::FileId> ids;
  const size_t payload = sys.core.payload_size();
  for (size_t f = 0; f < files; ++f) {
    auto id = sys.agent->CreateHiddenFile("u");
    EXPECT_TRUE(id.ok());
    Bytes data(blocks * payload);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(f * 37 + i / payload);
    }
    EXPECT_TRUE(sys.agent->Write(*id, 0, data).ok());
    ids.push_back(*id);
  }
  for (size_t round = 0; round < 3; ++round) {
    for (size_t f = 0; f < files; ++f) {
      EXPECT_TRUE(sys.agent->Read(ids[f], 0, blocks * payload).ok());
    }
    EXPECT_TRUE(
        sys.agent->Write(ids[round % files], payload,
                         Bytes(payload, static_cast<uint8_t>(round)))
            .ok());
  }
  return ids;
}

/// The single-volume trace restricted to shard k's residue class, with
/// block ids remapped to shard-local offsets.
IoTrace RestrictToShard(const IoTrace& trace, size_t shard, size_t shards) {
  IoTrace out;
  for (const TraceEvent& ev : trace) {
    if (ev.block_id % shards == shard) {
      out.push_back({ev.kind, ev.block_id / shards});
    }
  }
  return out;
}

IoTrace Sorted(IoTrace trace) {
  std::sort(trace.begin(), trace.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.block_id != b.block_id ? a.block_id < b.block_id
                                              : a.kind < b.kind;
            });
  return trace;
}

void CheckPerShardTraceEquivalence(bool deamortize) {
  constexpr size_t kShards = 4;
  SingleVolumeSystem single(4242, deamortize);
  ShardedVolumeSystem sharded(4242, deamortize, kShards);
  EXPECT_EQ(sharded.agent->store().io_shard_count(), kShards);

  DriveWorkload(single, 6, 4);
  DriveWorkload(sharded, 6, 4);

  for (size_t k = 0; k < kShards; ++k) {
    const IoTrace expected =
        RestrictToShard(single.cache_traced.trace(), k, kShards);
    const IoTrace& actual = sharded.traces[k]->trace();
    // The acceptance bar is multiset equality (each shard's touch
    // multiset = the single-volume schedule restricted to that shard);
    // the stripe map preserves per-shard issue order too, so the
    // sequences themselves match.
    EXPECT_EQ(Sorted(actual), Sorted(expected)) << "shard " << k;
    EXPECT_EQ(actual, expected) << "shard " << k << " (sequence)";
  }
}

TEST(ShardedTraceEquivalenceTest, BlockingReorders) {
  CheckPerShardTraceEquivalence(/*deamortize=*/false);
}

TEST(ShardedTraceEquivalenceTest, DeamortizedReorderChains) {
  CheckPerShardTraceEquivalence(/*deamortize=*/true);
}

TEST(ShardedTraceEquivalenceTest, ShadowPhaseSeparatesSpindles) {
  // With the shadow mirror offset by one block, every slot's ping-pong
  // twin lands on a different spindle (the phase difference is 1 mod K);
  // the flat layout (shadow_base % K == 0) does not separate.
  constexpr size_t kShards = 4;
  ShardedVolumeSystem flat(77, /*deamortize=*/true, kShards);
  EXPECT_FALSE(flat.agent->store().shadow_spindle_separated());

  // A twin with the +1 phase shift: shadow_base 369 instead of 368.
  storage::MemBlockDevice steg_mem(4096, 4096);
  stegfs::StegFsCore core(&steg_mem, stegfs::StegFsOptions{77, true});
  ASSERT_TRUE(core.Format().ok());
  std::vector<std::unique_ptr<storage::MemBlockDevice>> mems;
  std::vector<storage::BlockDevice*> tops;
  for (size_t k = 0; k < kShards; ++k) {
    mems.push_back(std::make_unique<storage::MemBlockDevice>(200, 4096));
    tops.push_back(mems.back().get());
  }
  storage::ShardedBlockDevice cache(std::move(tops));
  auto opts = StoreOptions(/*deamortize=*/true);
  opts.shadow_base += 1;  // 369: phase 1 mod 4 for every level
  auto created = ObliviousAgent::Create(&core, &cache, opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto agent = std::move(created).value();
  EXPECT_TRUE(agent->store().deamortized());
  EXPECT_TRUE(agent->store().shadow_spindle_separated());

  // The phased geometry still serves correctly end to end.
  EXPECT_TRUE(agent->CreateDummyFile("u", 600).ok());
  const size_t payload = core.payload_size();
  auto id = agent->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  Bytes data(8 * payload, 0xd7);
  ASSERT_TRUE(agent->Write(*id, 0, data).ok());
  auto back = agent->Read(*id, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

// ---- Dispatcher over a K=4 sharded cache (tsan/sanitize target) --------

TEST(ShardedDispatchStressTest, ConcurrentSessionsOverShardedCache) {
  constexpr size_t kShards = 4;
  constexpr size_t kUsers = 8;
  constexpr size_t kBlocks = 3;
  ShardedVolumeSystem sys(9001, /*deamortize=*/true, kShards);
  auto ids = DriveWorkload(sys, kUsers, kBlocks);
  const size_t payload = sys.core.payload_size();

  DispatcherOptions options;
  options.max_batch = 8;
  options.commit_window = std::chrono::milliseconds(20);
  RequestDispatcher dispatcher(sys.agent.get(), options);
  {
    std::vector<std::unique_ptr<RequestDispatcher::Session>> sessions;
    for (size_t u = 0; u < kUsers; ++u) {
      sessions.push_back(dispatcher.OpenSession());
    }
    std::vector<std::function<Status()>> tasks;
    for (size_t u = 0; u < kUsers; ++u) {
      tasks.push_back([&, u]() -> Status {
        for (size_t round = 0; round < 4; ++round) {
          auto back = sessions[u]->Read(ids[u], 0, kBlocks * payload);
          STEGHIDE_RETURN_IF_ERROR(back.status());
          if (back->size() != kBlocks * payload) {
            return Status::Internal("short read");
          }
          STEGHIDE_RETURN_IF_ERROR(sessions[u]->Write(
              ids[u], 0, Bytes(payload, static_cast<uint8_t>(u + round))));
        }
        return Status::OK();
      });
    }
    for (const Status& status : workload::RunOnThreads(std::move(tasks))) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
  dispatcher.Stop();
  // Tail re-order chains drain clean.
  bool more = true;
  while (more) {
    ASSERT_TRUE(sys.agent->store().StepReorder(1u << 20, &more).ok());
  }
  // Every user's final image is readable and consistent.
  for (size_t u = 0; u < kUsers; ++u) {
    auto back = sys.agent->Read(ids[u], 0, payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, Bytes(payload, static_cast<uint8_t>(u + 3)));
  }
}

}  // namespace
}  // namespace steghide::agent
