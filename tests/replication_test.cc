// Fault-matrix suite for the mirrored shard layer: ReplicatedBlockDevice
// write-all/read-one semantics, rotation, failover, quarantine, degraded
// mode and incremental repair; quorum mirrors; a seeded model-based fuzz
// of both mirror modes; VolumeSet kill/revive/repair plumbing; a
// crash-consistency scenario (one replica of one shard dies mid
// flush-cascade, serving continues, repair re-mirrors it); and the
// oblivious-replication pin — per-replica traces, including failover and
// repair traffic, depend on the request pattern and fault schedule only,
// never on record contents.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "agent/oblivious_agent.h"
#include "storage/fault_device.h"
#include "storage/mem_block_device.h"
#include "storage/replicated_device.h"
#include "storage/trace_device.h"
#include "storage/volume_set.h"
#include "testing/golden.h"
#include "testing/mirrored_agent.h"
#include "util/random.h"

namespace steghide::storage {
namespace {

using steghide::testing::FillGolden;
using steghide::testing::GoldenBlock;

/// R mem replicas, each behind a killable fault layer and a trace layer:
/// Mem -> Fault -> Trace, mirrored by a ReplicatedBlockDevice — the unit
/// twin of one VolumeSet shard.
struct MirrorFixture {
  /// `plans[r]`, when given, scripts replica r's fault layer.
  explicit MirrorFixture(size_t replicas, uint64_t blocks,
                         ReplicationOptions options = {},
                         size_t block_size = 512,
                         std::vector<FaultPlan> plans = {}) {
    std::vector<BlockDevice*> tops;
    for (size_t r = 0; r < replicas; ++r) {
      mems.push_back(std::make_unique<MemBlockDevice>(blocks, block_size));
      faults.push_back(std::make_unique<FaultInjectionBlockDevice>(
          mems.back().get(), r < plans.size() ? plans[r] : FaultPlan{}));
      traces.push_back(
          std::make_unique<TraceBlockDevice>(faults.back().get()));
      tops.push_back(traces.back().get());
    }
    rep = std::make_unique<ReplicatedBlockDevice>(std::move(tops), options);
  }

  size_t ReadCount(size_t r) const {
    size_t n = 0;
    for (const TraceEvent& ev : traces[r]->trace()) {
      if (ev.kind == TraceEvent::Kind::kRead) ++n;
    }
    return n;
  }

  std::vector<std::unique_ptr<MemBlockDevice>> mems;
  std::vector<std::unique_ptr<FaultInjectionBlockDevice>> faults;
  std::vector<std::unique_ptr<TraceBlockDevice>> traces;
  std::unique_ptr<ReplicatedBlockDevice> rep;
};

TEST(ReplicatedDeviceTest, WritesReachEveryReplicaReadsRotate) {
  MirrorFixture fx(2, 8);
  const Bytes image = GoldenBlock(1, 3, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(3, image.data()).ok());
  EXPECT_TRUE(steghide::testing::BlockEquals(*fx.mems[0], 3, image));
  EXPECT_TRUE(steghide::testing::BlockEquals(*fx.mems[1], 3, image));

  Bytes out(512);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(3, out.data()).ok());
    EXPECT_EQ(out, image);
  }
  // Read-one with rotation: the four reads alternate replicas — a
  // data-independent choice (a counter, not contents).
  EXPECT_EQ(fx.ReadCount(0), 2u);
  EXPECT_EQ(fx.ReadCount(1), 2u);
  const ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.reads, 4u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.healthy_replicas, 2u);
}

TEST(ReplicatedDeviceTest, ReadFailoverThenQuarantineAfterThreshold) {
  MirrorFixture fx(2, 8);
  ASSERT_TRUE(FillGolden(*fx.rep, 6).ok());
  fx.faults[0]->Kill();

  // Every read still succeeds. Rotation makes every second read start
  // at the dead replica (a failover); after quarantine_after = 3
  // consecutive failures replica 0 is benched and failovers stop.
  Bytes out(512);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(2, out.data()).ok()) << "read " << i;
    EXPECT_EQ(out, GoldenBlock(6, 2, 512));
  }
  const ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.failovers, 3u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.healthy_replicas, 1u);
  EXPECT_EQ(fx.rep->replica_state(0), ReplicaState::kQuarantined);

  // Degraded mode: writes keep succeeding on the surviving replica.
  const Bytes image = GoldenBlock(9, 0, 512);
  EXPECT_TRUE(fx.rep->WriteBlock(0, image.data()).ok());
  EXPECT_TRUE(steghide::testing::BlockEquals(*fx.mems[1], 0, image));
}

TEST(ReplicatedDeviceTest, MissedWriteQuarantinesImmediately) {
  MirrorFixture fx(2, 8);
  fx.faults[1]->Kill();
  const Bytes image = GoldenBlock(4, 5, 512);
  // The write succeeds (replica 0 has it) but replica 1 is now stale and
  // must never serve a read again until repaired.
  ASSERT_TRUE(fx.rep->WriteBlock(5, image.data()).ok());
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kQuarantined);
  EXPECT_EQ(fx.rep->stats().quarantines, 1u);

  fx.faults[1]->Revive();
  // Still quarantined after revival: health is a mirror property, not a
  // device property. All reads come from replica 0.
  const size_t before = fx.ReadCount(1);
  Bytes out(512);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(5, out.data()).ok());
    EXPECT_EQ(out, image);
  }
  EXPECT_EQ(fx.ReadCount(1), before);
}

TEST(ReplicatedDeviceTest, NoHealthyReplicasSurfacesIoError) {
  MirrorFixture fx(2, 8);
  fx.faults[0]->Kill();
  fx.faults[1]->Kill();
  const Bytes image = GoldenBlock(2, 0, 512);
  EXPECT_EQ(fx.rep->WriteBlock(0, image.data()).code(),
            StatusCode::kIoError);
  Bytes out(512);
  EXPECT_EQ(fx.rep->ReadBlock(0, out.data()).code(), StatusCode::kIoError);
  EXPECT_EQ(fx.rep->stats().healthy_replicas, 0u);
}

TEST(ReplicatedDeviceTest, RepairReMirrorsAndPromotes) {
  MirrorFixture fx(2, 16);
  ASSERT_TRUE(FillGolden(*fx.rep, 8).ok());

  // Replica 1 dies, misses a round of updates, comes back.
  fx.faults[1]->Kill();
  for (uint64_t b = 0; b < 16; b += 2) {
    const Bytes image = GoldenBlock(77, b, 512);
    ASSERT_TRUE(fx.rep->WriteBlock(b, image.data()).ok());
  }
  ASSERT_EQ(fx.rep->replica_state(1), ReplicaState::kQuarantined);
  fx.faults[1]->Revive();

  ASSERT_TRUE(fx.rep->StartRepair(1).ok());
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kRepairing);
  EXPECT_TRUE(fx.rep->repair_pending());

  // Writes during repair reach the repairing replica too, so the copied
  // prefix can never go stale behind the sweep.
  const Bytes live = GoldenBlock(123, 1, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(1, live.data()).ok());

  bool more = true;
  while (more) {
    ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  }
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kHealthy);
  EXPECT_FALSE(fx.rep->repair_pending());
  const ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.repairs_completed, 1u);
  EXPECT_EQ(stats.repair_blocks, 16u);

  // Byte-for-byte mirror again.
  for (uint64_t b = 0; b < 16; ++b) {
    Bytes a(512), c(512);
    ASSERT_TRUE(fx.mems[0]->ReadBlock(b, a.data()).ok());
    ASSERT_TRUE(fx.mems[1]->ReadBlock(b, c.data()).ok());
    EXPECT_EQ(a, c) << "block " << b;
  }
}

TEST(ReplicatedDeviceTest, RepairTrafficIsAFixedPublicSchedule) {
  MirrorFixture fx(2, 8);
  ASSERT_TRUE(FillGolden(*fx.rep, 31).ok());
  fx.rep->Quarantine(1);
  ASSERT_TRUE(fx.rep->StartRepair(1).ok());
  fx.traces[1]->ClearTrace();

  bool more = true;
  while (more) {
    ASSERT_TRUE(fx.rep->RepairStep(3, &more).ok());
  }
  // The repaired replica sees exactly one ascending full-device write
  // sweep — block ids 0..N-1 in order, independent of which blocks
  // actually changed while it was out.
  const IoTrace& trace = fx.traces[1]->trace();
  ASSERT_EQ(trace.size(), 8u);
  for (uint64_t b = 0; b < 8; ++b) {
    EXPECT_EQ(trace[b].kind, TraceEvent::Kind::kWrite);
    EXPECT_EQ(trace[b].block_id, b);
  }
}

TEST(ReplicatedDeviceTest, CurrentCopyReadAfterEveryReplicaFailedIsNotStale) {
  // Both replicas are current, and each fails its first two reads: the
  // whole-batch pass and the per-block pass both fail, and the fallback
  // reads the newest copy — a current one — a third time. That read is
  // served-current, not a stale read.
  FaultSpec flaky;
  flaky.kind = FaultSpec::Kind::kTransientError;
  flaky.ops = FaultSpec::OpFilter::kRead;
  flaky.max_fires = 2;
  const FaultPlan plan{{flaky}, 0};
  for (bool quorum : {false, true}) {
    SCOPED_TRACE(quorum ? "quorum" : "strict");
    ReplicationOptions options;
    options.quorum = quorum;
    MirrorFixture fx(2, 8, options, 512, {plan, plan});
    const Bytes image = GoldenBlock(5, 3, 512);
    ASSERT_TRUE(fx.rep->WriteBlock(3, image.data()).ok());
    Bytes out(512);
    EXPECT_TRUE(fx.rep->ReadBlock(3, out.data()).ok());
    EXPECT_EQ(out, image);
    EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 0u);
  }
}

TEST(ReplicatedDeviceTest, BatchFailingOnDifferentReplicasIsServedPerBlock) {
  // Replica 0 cannot read block 2 and replica 1 cannot read block 5, so
  // each fails the batch {2, 5} as a whole. Together they still hold
  // every block current, and the batch is served block by block.
  const auto sticky_read = [](uint64_t block) {
    FaultSpec spec;
    spec.kind = FaultSpec::Kind::kStickyError;
    spec.ops = FaultSpec::OpFilter::kRead;
    spec.first_block = spec.last_block = block;
    return FaultPlan{{spec}, 0};
  };
  for (bool quorum : {false, true}) {
    SCOPED_TRACE(quorum ? "quorum" : "strict");
    ReplicationOptions options;
    options.quorum = quorum;
    MirrorFixture fx(2, 8, options, 512, {sticky_read(2), sticky_read(5)});
    ASSERT_TRUE(FillGolden(*fx.rep, 61).ok());
    const std::vector<uint64_t> ids = {2, 5};
    Bytes out(2 * 512);
    EXPECT_TRUE(fx.rep->ReadBlocks(ids, out.data()).ok());
    EXPECT_EQ(Bytes(out.begin(), out.begin() + 512), GoldenBlock(61, 2, 512));
    EXPECT_EQ(Bytes(out.begin() + 512, out.end()), GoldenBlock(61, 5, 512));
    EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 0u);
  }
}

// ---- Quorum mode (R = 3): W/R windows, concurrent quarantines, ----------
// ---- repair racing live writes ------------------------------------------

ReplicationOptions QuorumOptions(size_t w, size_t r, int quarantine_after) {
  ReplicationOptions options;
  options.quorum = true;
  options.write_quorum = w;
  options.read_quorum = r;
  options.quarantine_after = quarantine_after;
  return options;
}

TEST(QuorumReplicationTest, TwoConcurrentQuarantinesServeAndRepair) {
  // W = 1 survives the loss of two of three replicas: writes keep
  // succeeding on the lone survivor, both casualties walk the
  // lagging -> quarantined ladder independently, and one repair sweep
  // re-mirrors them together.
  MirrorFixture fx(3, 16, QuorumOptions(1, 1, /*quarantine_after=*/2));
  ASSERT_TRUE(FillGolden(*fx.rep, 21).ok());
  fx.faults[1]->Kill();
  fx.faults[2]->Kill();

  for (uint64_t b = 0; b < 8; ++b) {
    const Bytes image = GoldenBlock(22, b, 512);
    ASSERT_TRUE(fx.rep->WriteBlock(b, image.data()).ok()) << "block " << b;
  }
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kQuarantined);
  EXPECT_EQ(fx.rep->replica_state(2), ReplicaState::kQuarantined);
  ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.quarantines, 2u);
  EXPECT_EQ(stats.write_quorum_failures, 0u);
  EXPECT_EQ(stats.healthy_replicas, 1u);

  Bytes out(512);
  for (uint64_t b = 0; b < 16; ++b) {
    ASSERT_TRUE(fx.rep->ReadBlock(b, out.data()).ok());
    EXPECT_EQ(out, GoldenBlock(b < 8 ? 22 : 21, b, 512)) << "block " << b;
  }
  EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 0u);

  // Both replicas repair in the same sweep and come back byte-identical.
  fx.faults[1]->Revive();
  fx.faults[2]->Revive();
  ASSERT_TRUE(fx.rep->StartRepair(1).ok());
  ASSERT_TRUE(fx.rep->StartRepair(2).ok());
  bool more = true;
  while (more) {
    ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  }
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kHealthy);
  EXPECT_EQ(fx.rep->replica_state(2), ReplicaState::kHealthy);
  for (uint64_t b = 0; b < 16; ++b) {
    Bytes a(512), c(512), d(512);
    ASSERT_TRUE(fx.mems[0]->ReadBlock(b, a.data()).ok());
    ASSERT_TRUE(fx.mems[1]->ReadBlock(b, c.data()).ok());
    ASSERT_TRUE(fx.mems[2]->ReadBlock(b, d.data()).ok());
    EXPECT_EQ(a, c) << "block " << b;
    EXPECT_EQ(a, d) << "block " << b;
  }
}

TEST(QuorumReplicationTest, RepairSweepRestartsWhenRacedByAFailedWrite) {
  MirrorFixture fx(3, 8, QuorumOptions(1, 1, /*quarantine_after=*/3));
  ASSERT_TRUE(FillGolden(*fx.rep, 30).ok());

  // Replica 2 misses one write, comes back, and starts repairing.
  fx.faults[2]->Kill();
  const Bytes missed = GoldenBlock(31, 3, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(3, missed.data()).ok());
  ASSERT_EQ(fx.rep->replica_state(2), ReplicaState::kLagging);
  fx.faults[2]->Revive();
  ASSERT_TRUE(fx.rep->StartRepair(2).ok());

  // The sweep copies blocks 0..3, then a live write to block 1 — already
  // behind the cursor — fails on the repairing replica. The completed
  // sweep may not promote: it restarts until the replica lacks no block.
  bool more = true;
  ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  ASSERT_TRUE(more);
  ASSERT_EQ(fx.rep->repair_cursor(), 4u);
  fx.faults[2]->Kill();
  const Bytes behind = GoldenBlock(32, 1, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(1, behind.data()).ok());
  fx.faults[2]->Revive();
  // A racing write *ahead* of the cursor lands directly and needs no
  // second pass.
  const Bytes ahead = GoldenBlock(32, 6, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(6, ahead.data()).ok());

  ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  EXPECT_TRUE(more) << "sweep must restart: block 1 is stale again";
  EXPECT_EQ(fx.rep->replica_state(2), ReplicaState::kRepairing);
  while (more) {
    ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  }
  EXPECT_EQ(fx.rep->replica_state(2), ReplicaState::kHealthy);
  EXPECT_EQ(fx.rep->stale_blocks(2), 0u);

  Bytes out(512);
  ASSERT_TRUE(fx.rep->ReadBlock(1, out.data()).ok());
  EXPECT_EQ(out, behind);
  for (uint64_t b = 0; b < 8; ++b) {
    Bytes a(512), c(512);
    ASSERT_TRUE(fx.mems[0]->ReadBlock(b, a.data()).ok());
    ASSERT_TRUE(fx.mems[2]->ReadBlock(b, c.data()).ok());
    EXPECT_EQ(a, c) << "block " << b;
  }
  EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 0u);
}

TEST(QuorumReplicationTest, ReadWindowAtTheIntersectionBoundary) {
  // W + R = R_total + 1 (2 + 2 = 3 + 1): any read window of two rotation
  // candidates intersects every write quorum, so with one lagging
  // replica no read ever widens beyond the window — and none is stale.
  MirrorFixture fx(3, 8, QuorumOptions(2, 2, /*quarantine_after=*/100));
  ASSERT_TRUE(FillGolden(*fx.rep, 33).ok());
  fx.faults[2]->Kill();
  const Bytes fresh = GoldenBlock(34, 4, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(4, fresh.data()).ok());  // two acks = W
  ASSERT_EQ(fx.rep->replica_state(2), ReplicaState::kLagging);

  Bytes out(512);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(4, out.data()).ok());
    EXPECT_EQ(out, fresh) << "read " << i;
  }
  ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.quorum_widened, 0u);
  EXPECT_EQ(stats.quorum_stale_reads, 0u);
}

TEST(QuorumReplicationTest, BelowTheBoundaryReadsWidenButNeverGoStale) {
  // W + R = R_total (1 + 2 = 3): two laggards can hold stale copies, so
  // a window of two rotation candidates sometimes contains no current
  // replica. The search widens (and says so) rather than serve a stale
  // copy.
  MirrorFixture fx(3, 8, QuorumOptions(1, 2, /*quarantine_after=*/100));
  ASSERT_TRUE(FillGolden(*fx.rep, 35).ok());
  fx.faults[1]->Kill();
  fx.faults[2]->Kill();
  const Bytes fresh = GoldenBlock(36, 4, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(4, fresh.data()).ok());  // one ack = W

  Bytes out(512);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(4, out.data()).ok());
    EXPECT_EQ(out, fresh) << "read " << i;
  }
  ReplicationStats stats = fx.rep->stats();
  EXPECT_GT(stats.quorum_widened, 0u);
  EXPECT_EQ(stats.quorum_stale_reads, 0u);
}

TEST(QuorumReplicationTest, StaleFallbackOnlyWhenNoCurrentReplicaRemains) {
  MirrorFixture fx(3, 8, QuorumOptions(1, 2, /*quarantine_after=*/2));
  ASSERT_TRUE(FillGolden(*fx.rep, 37).ok());

  // Replicas 1 and 2 miss the update to block 4, then come back
  // reachable (but still stale). The only current copy — replica 0 —
  // dies.
  fx.faults[1]->Kill();
  fx.faults[2]->Kill();
  const Bytes fresh = GoldenBlock(38, 4, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(4, fresh.data()).ok());
  fx.faults[1]->Revive();
  fx.faults[2]->Revive();
  fx.faults[0]->Kill();

  // While replica 0 is still in rotation the read refuses to serve a
  // stale copy: it fails instead (and the repeated errors bench the
  // dead replica).
  Bytes out(512);
  ASSERT_FALSE(fx.rep->ReadBlock(4, out.data()).ok());
  EXPECT_EQ(fx.rep->replica_state(0), ReplicaState::kQuarantined);
  EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 0u);

  // With no current replica left at all, degraded mode serves the
  // newest reachable copy — and counts the loss.
  ASSERT_TRUE(fx.rep->ReadBlock(4, out.data()).ok());
  EXPECT_EQ(out, GoldenBlock(37, 4, 512));
  EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 1u);
}

// ---- Seeded model-based fuzz --------------------------------------------
//
// Random vectored writes and reads, flushes, kills, revives and repair
// steps against mirrors whose replicas carry random transient, torn and
// sticky faults, checked after every op against a per-block model.

constexpr uint64_t kFuzzBlocks = 16;
constexpr size_t kFuzzBlockSize = 64;
constexpr int kFuzzOps = 500;
constexpr uint64_t kFuzzSeeds = 100;

/// Image of write `wid` to `block`; write 0 is the zeroed initial image.
Bytes FuzzImage(uint64_t wid, uint64_t block) {
  return wid == 0 ? Bytes(kFuzzBlockSize, 0)
                  : GoldenBlock(wid, block, kFuzzBlockSize);
}

/// One replica's fault schedule: transient read and write errors, torn
/// writes, and a sticky range that latches the first time it fires.
FaultPlan FuzzFaultPlan(Rng& rng) {
  using Kind = FaultSpec::Kind;
  using Op = FaultSpec::OpFilter;
  FaultPlan plan;
  plan.seed = rng.Next();
  if (rng.Bernoulli(0.7)) {
    plan.faults.push_back({.kind = Kind::kTransientError,
                           .ops = Op::kRead,
                           .every_nth = rng.UniformRange(3, 40),
                           .start_after = rng.Uniform(60)});
  }
  if (rng.Bernoulli(0.5)) {
    plan.faults.push_back({.kind = Kind::kTransientError,
                           .ops = Op::kWrite,
                           .every_nth = rng.UniformRange(4, 60),
                           .start_after = rng.Uniform(60)});
  }
  if (rng.Bernoulli(0.4)) {
    plan.faults.push_back({.kind = Kind::kTorn,
                           .ops = Op::kWrite,
                           .every_nth = rng.UniformRange(8, 80),
                           .start_after = rng.Uniform(100)});
  }
  if (rng.Bernoulli(0.3)) {
    const Op directions[] = {Op::kRead, Op::kWrite, Op::kAny};
    const uint64_t first = rng.Uniform(kFuzzBlocks);
    plan.faults.push_back(
        {.kind = Kind::kStickyError,
         .ops = directions[rng.Uniform(3)],
         .first_block = first,
         .last_block = std::min(kFuzzBlocks - 1, first + rng.Uniform(3)),
         .start_after = rng.Uniform(800),
         .max_fires = 1});
  }
  return plan;
}

/// One to four distinct block ids.
std::vector<uint64_t> FuzzIds(Rng& rng) {
  std::vector<uint64_t> ids(kFuzzBlocks);
  std::iota(ids.begin(), ids.end(), 0);
  rng.Shuffle(ids);
  ids.resize(1 + rng.Uniform(4));
  return ids;
}

/// Runs one seeded op stream over a mirror built from `options`.
/// Returns false after reporting the first violation.
bool RunMirrorFuzz(const ReplicationOptions& options, size_t replicas,
                   uint64_t seed) {
  Rng rng(seed);
  std::vector<FaultPlan> plans;
  for (size_t r = 0; r < replicas; ++r) plans.push_back(FuzzFaultPlan(rng));
  MirrorFixture fx(replicas, kFuzzBlocks, options, kFuzzBlockSize, plans);

  // Per block: the last acknowledged write, and every write to it that
  // failed since (a failed write may have landed on any replica).
  std::vector<uint64_t> acked(kFuzzBlocks, 0);
  std::vector<std::vector<uint64_t>> failed_since(kFuzzBlocks);
  uint64_t next_wid = 1;
  for (int op = 0; op < kFuzzOps; ++op) {
    const uint64_t dice = rng.Uniform(100);
    const size_t target = rng.Uniform(replicas);
    if (dice < 35) {
      const std::vector<uint64_t> ids = FuzzIds(rng);
      const uint64_t wid = next_wid++;
      Bytes data;
      for (uint64_t id : ids) {
        const Bytes image = FuzzImage(wid, id);
        data.insert(data.end(), image.begin(), image.end());
      }
      const bool ok = fx.rep->WriteBlocks(ids, data.data()).ok();
      for (uint64_t id : ids) {
        if (ok) {
          acked[id] = wid;
          failed_since[id].clear();
        } else {
          failed_since[id].push_back(wid);
        }
      }
    } else if (dice < 70) {
      const std::vector<uint64_t> ids = FuzzIds(rng);
      Bytes out(ids.size() * kFuzzBlockSize);
      const uint64_t stale_before = fx.rep->stats().quorum_stale_reads;
      const bool ok = fx.rep->ReadBlocks(ids, out.data()).ok();
      // A counted stale read is reported data loss; every other OK read
      // must return data some write really put there.
      if (ok && fx.rep->stats().quorum_stale_reads == stale_before) {
        for (size_t i = 0; i < ids.size(); ++i) {
          const Bytes got(out.begin() + i * kFuzzBlockSize,
                          out.begin() + (i + 1) * kFuzzBlockSize);
          bool known = got == FuzzImage(acked[ids[i]], ids[i]);
          for (uint64_t wid : failed_since[ids[i]]) {
            known = known || got == FuzzImage(wid, ids[i]);
          }
          if (!known) {
            ADD_FAILURE() << "seed " << seed << " op " << op << ": block "
                          << ids[i] << " read back neither its acknowledged "
                          << "image nor that of a write that failed since";
            return false;
          }
        }
      }
    } else if (dice < 75) {
      (void)fx.rep->Flush();
    } else if (dice < 80) {
      fx.faults[target]->Kill();
    } else if (dice < 88) {
      fx.faults[target]->Revive();
    } else if (dice < 93) {
      (void)fx.rep->StartRepair(target);
    } else {
      bool more = false;
      (void)fx.rep->RepairStep(1 + rng.Uniform(8), &more);
    }
    for (size_t r = 0; r < replicas; ++r) {
      if (fx.rep->replica_state(r) == ReplicaState::kHealthy &&
          fx.rep->stale_blocks(r) != 0) {
        ADD_FAILURE() << "seed " << seed << " op " << op
                      << ": healthy replica " << r << " lacks "
                      << fx.rep->stale_blocks(r) << " blocks";
        return false;
      }
    }
    // A strict mirror's serving replicas never lack a block, so nothing
    // it serves can be stale.
    if (!options.quorum && fx.rep->stats().quorum_stale_reads != 0) {
      ADD_FAILURE() << "seed " << seed << " op " << op
                    << ": a strict mirror counted a stale read";
      return false;
    }
  }
  return true;
}

TEST(MirrorFuzzTest, ReadsReturnAcknowledgedOrFailedWritesInBothModes) {
  struct Setting {
    size_t write_quorum, read_quorum;
    int quarantine_after;
  };
  // A hair-trigger and a patient quarantine at W = R = 1, and a
  // W + R > replicas quorum.
  const Setting kSettings[] = {{1, 1, 3}, {1, 1, 64}, {2, 2, 100}};
  for (bool quorum : {false, true}) {
    for (const Setting& setting : kSettings) {
      for (size_t replicas : {2, 3}) {
        ReplicationOptions options;
        options.quorum = quorum;
        options.write_quorum = setting.write_quorum;
        options.read_quorum = setting.read_quorum;
        options.quarantine_after = setting.quarantine_after;
        SCOPED_TRACE(::testing::Message()
                     << (quorum ? "quorum" : "strict")
                     << " W=" << setting.write_quorum
                     << " R=" << setting.read_quorum
                     << " quarantine_after=" << setting.quarantine_after
                     << " replicas=" << replicas);
        for (uint64_t seed = 0; seed < kFuzzSeeds; ++seed) {
          // Stop at the first violation rather than flood the log.
          if (!RunMirrorFuzz(options, replicas, seed)) return;
        }
      }
    }
  }
}

// ---- VolumeSet kill / revive / repair -----------------------------------

TEST(VolumeSetReplicationTest, KillReviveRepairRoundTrip) {
  VolumeSet::Options options;
  options.shards = 2;
  options.replicas = 2;
  options.total_blocks = 64;
  options.block_size = 512;
  options.fault_plan = [](size_t, size_t) { return FaultPlan{}; };
  VolumeSet volumes(options);
  ASSERT_EQ(volumes.replica_count(), 2u);
  ASSERT_NE(volumes.replicated(0), nullptr);

  ASSERT_TRUE(FillGolden(volumes.device(), 51).ok());
  volumes.KillReplica(0, 1);

  // Serving continues degraded: every global block, including shard 0's,
  // still reads and writes.
  Bytes out(512);
  for (uint64_t g = 0; g < 64; ++g) {
    ASSERT_TRUE(volumes.device().ReadBlock(g, out.data()).ok());
    EXPECT_EQ(out, GoldenBlock(51, g, 512));
  }
  for (uint64_t g = 0; g < 64; g += 4) {
    const Bytes image = GoldenBlock(52, g, 512);
    ASSERT_TRUE(volumes.device().WriteBlock(g, image.data()).ok());
  }
  EXPECT_EQ(volumes.replicated(0)->replica_state(1),
            ReplicaState::kQuarantined);

  ASSERT_TRUE(volumes.ReviveAndRepair(0, 1).ok());
  EXPECT_TRUE(volumes.repair_pending());
  for (;;) {
    auto pending = volumes.PumpRepair(8);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    if (!*pending) break;
  }
  EXPECT_FALSE(volumes.repair_pending());
  EXPECT_EQ(volumes.replicated(0)->replica_state(1), ReplicaState::kHealthy);

  // Shard 0's replicas are byte-identical again.
  for (uint64_t local = 0; local < volumes.mem(0, 0).num_blocks(); ++local) {
    Bytes a(512), b(512);
    ASSERT_TRUE(volumes.mem(0, 0).ReadBlock(local, a.data()).ok());
    ASSERT_TRUE(volumes.mem(0, 1).ReadBlock(local, b.data()).ok());
    EXPECT_EQ(a, b) << "local block " << local;
  }
}

TEST(VolumeSetReplicationTest, ReviveAndRepairRequiresReplication) {
  VolumeSet::Options options;
  options.shards = 2;
  options.total_blocks = 16;
  options.block_size = 512;
  VolumeSet volumes(options);
  EXPECT_EQ(volumes.ReviveAndRepair(0, 0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(volumes.repair_pending());
  auto pending = volumes.PumpRepair(8);
  ASSERT_TRUE(pending.ok());
  EXPECT_FALSE(*pending);
}

}  // namespace
}  // namespace steghide::storage

// ---- Full-stack crash consistency and per-replica obliviousness ---------

namespace steghide::agent {
namespace {

using storage::FaultPlan;
using storage::IoTrace;
using storage::ReplicaState;
using storage::VolumeSet;

/// Agent over a K=2, R=2 replicated + traced VolumeSet cache. Two
/// instances with the same seed issue identical op streams until their
/// inputs diverge; `salt` varies record *contents* only.
struct ReplicatedSystem : steghide::testing::MirroredAgentSystem {
  explicit ReplicatedSystem(uint64_t seed)
      : MirroredAgentSystem(seed, Options(), /*drbg_seed=*/41) {}

  static VolumeSet::Options Options() {
    VolumeSet::Options options;
    options.shards = 2;
    options.replicas = 2;
    options.total_blocks = 768;
    options.block_size = 4096;
    options.traced = true;
    options.fault_plan = [](size_t, size_t) { return FaultPlan{}; };
    return options;
  }
};

TEST(ReplicatedCrashConsistencyTest, ShardReplicaDiesMidCascade) {
  ReplicatedSystem sys(3001);
  constexpr size_t kFiles = 6, kBlocks = 4;
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(/*salt=*/0, kFiles, kBlocks);

  // Update every file's first block, park a flush cascade mid-flight,
  // then kill one replica of shard 0 under it.
  for (size_t f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(sys.agent
                    ->Write(ids[f], 0,
                            Bytes(payload, static_cast<uint8_t>(0xc0 + f)))
                    .ok());
  }
  sys.BuildReorderBacklog();
  ASSERT_TRUE(sys.agent->store().reorder_pending());
  sys.volumes->KillReplica(0, 1);

  // Zero failed requests: every read and write after the kill succeeds
  // via failover / degraded writes, while the cascade finishes.
  for (size_t f = 0; f < kFiles; ++f) {
    auto back = sys.agent->Read(ids[f], 0, kBlocks * payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
  }
  ASSERT_TRUE(sys.agent
                  ->Write(ids[0], payload, Bytes(payload, 0xee))
                  .ok());
  sys.DrainReorders();
  EXPECT_EQ(sys.volumes->replicated(0)->replica_state(1),
            ReplicaState::kQuarantined);

  // Fail back: revive + repair, then verify every record — the ones from
  // before the kill, the mid-cascade updates, and the degraded-mode
  // write — plus the level hierarchy serving them.
  sys.RepairReplica(0, 1);
  EXPECT_EQ(sys.volumes->replicated(0)->stats().repairs_completed, 1u);

  for (size_t f = 0; f < kFiles; ++f) {
    auto back = sys.agent->Read(ids[f], 0, kBlocks * payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    for (size_t b = 0; b < kBlocks; ++b) {
      Bytes expected;
      if (b == 0) {
        expected = Bytes(payload, static_cast<uint8_t>(0xc0 + f));
      } else if (b == 1 && f == 0) {
        expected = Bytes(payload, 0xee);
      } else {
        expected = sys.FileBlock(0, f, b);
      }
      EXPECT_EQ(Bytes(back->begin() + b * payload,
                      back->begin() + (b + 1) * payload),
                expected)
          << "file " << f << " block " << b;
    }
  }

  // The repaired mirror is byte-identical to its twin.
  auto& mem0 = sys.volumes->mem(0, 0);
  auto& mem1 = sys.volumes->mem(0, 1);
  for (uint64_t local = 0; local < mem0.num_blocks(); ++local) {
    Bytes a(4096), b(4096);
    ASSERT_TRUE(mem0.ReadBlock(local, a.data()).ok());
    ASSERT_TRUE(mem1.ReadBlock(local, b.data()).ok());
    ASSERT_EQ(a, b) << "shard 0 local block " << local;
  }
}

TEST(ReplicatedTraceEquivalenceTest, ReplicaTracesAreContentIndependent) {
  // Twin systems, identical op sequence — kill, degraded serving, and
  // repair included — but different record contents. Every replica's
  // observed stream (reads from rotation/failover, write-all fan-out,
  // the repair sweep) must be identical: replica choice, scrub order and
  // repair traffic are functions of the pattern and the fault schedule,
  // never of the data.
  ReplicatedSystem a(4004), b(4004);
  constexpr size_t kFiles = 4, kBlocks = 4;
  const size_t payload = a.core.payload_size();

  const auto ids_a = a.Populate(/*salt=*/1, kFiles, kBlocks);
  const auto ids_b = b.Populate(/*salt=*/2, kFiles, kBlocks);

  a.volumes->KillReplica(1, 0);
  b.volumes->KillReplica(1, 0);

  for (size_t round = 0; round < 2; ++round) {
    for (size_t f = 0; f < kFiles; ++f) {
      ASSERT_TRUE(a.agent->Read(ids_a[f], 0, kBlocks * payload).ok());
      ASSERT_TRUE(b.agent->Read(ids_b[f], 0, kBlocks * payload).ok());
    }
    ASSERT_TRUE(
        a.agent->Write(ids_a[round], 0, Bytes(payload, 0x11)).ok());
    ASSERT_TRUE(
        b.agent->Write(ids_b[round], 0, Bytes(payload, 0x99)).ok());
  }
  a.DrainReorders();
  b.DrainReorders();
  a.RepairReplica(1, 0);
  b.RepairReplica(1, 0);

  for (size_t k = 0; k < 2; ++k) {
    for (size_t r = 0; r < 2; ++r) {
      const IoTrace& ta = a.volumes->trace(k, r)->trace();
      const IoTrace& tb = b.volumes->trace(k, r)->trace();
      EXPECT_EQ(ta, tb) << "replica (" << k << ", " << r << ")";
    }
  }
  // Sanity: the dead replica really was detected (the first op to reach
  // it after the kill may be a write, which quarantines without a
  // read-path failover — both detection paths are content-independent,
  // so the counters must agree across the twins either way).
  EXPECT_EQ(a.volumes->replicated(1)->stats().quarantines, 1u);
  EXPECT_EQ(a.volumes->replicated(1)->stats().failovers,
            b.volumes->replicated(1)->stats().failovers);
  EXPECT_EQ(a.volumes->replicated(1)->stats().repairs_completed, 1u);
}

}  // namespace
}  // namespace steghide::agent
