#include <gtest/gtest.h>

#include "agent/volatile_agent.h"
#include "analysis/distinguisher.h"
#include "analysis/snapshot_diff.h"
#include "baseline/stegfs2003.h"
#include "oblivious/steg_partition_reader.h"
#include "storage/mem_block_device.h"
#include "storage/snapshot.h"
#include "storage/trace_device.h"
#include "testing/device_factory.h"
#include "testing/rng.h"
#include "util/random.h"

namespace steghide {
namespace {

using agent::VolatileAgent;
using analysis::DistinguisherOptions;
using analysis::UpdateAnalysisObserver;

// =====================================================================
// Definition 1, update analysis: an attacker snapshotting the raw storage
// must not be able to tell a mixed (real + dummy) update campaign from a
// dummy-only campaign. Run at test scale.
// =====================================================================

class UpdateAnalysisEndToEnd : public ::testing::Test {
 protected:
  static constexpr uint64_t kBlocks = 1024;
  static constexpr int kRounds = 60;
  static constexpr int kOpsPerRound = 5;

  // Runs a campaign on a fresh volume; `real_ops_per_round` of the 5 ops
  // per round are updates of ONE hot logical block (a worst-case,
  // table-scan-like pattern); the rest are dummy updates. Returns the
  // attacker's per-block update counts.
  std::vector<uint64_t> RunStegHideCampaign(uint64_t seed,
                                            int real_ops_per_round) {
    storage::MemBlockDevice dev(kBlocks, 4096);
    stegfs::StegFsCore core(&dev, stegfs::StegFsOptions{seed, true});
    EXPECT_TRUE(core.Format().ok());
    VolatileAgent agent(&core);
    EXPECT_TRUE(agent.CreateDummyFile("alice", 300).ok());
    auto id = agent.CreateHiddenFile("alice");
    EXPECT_TRUE(id.ok());
    const size_t payload = core.payload_size();
    EXPECT_TRUE(agent.Write(*id, 0, Bytes(payload * 100, 1)).ok());

    UpdateAnalysisObserver observer(kBlocks);
    auto prev = storage::Snapshot::Capture(dev);
    EXPECT_TRUE(prev.ok());
    const Bytes fresh(payload, 0x99);
    for (int round = 0; round < kRounds; ++round) {
      for (int op = 0; op < kOpsPerRound; ++op) {
        if (op < real_ops_per_round) {
          // Hot logical block 3, over and over.
          EXPECT_TRUE(agent.Write(*id, 3 * payload, fresh).ok());
        } else {
          EXPECT_TRUE(agent.IdleDummyUpdates(1).ok());
        }
      }
      auto next = storage::Snapshot::Capture(dev);
      EXPECT_TRUE(next.ok());
      EXPECT_TRUE(observer.ObserveDiff(*prev, *next).ok());
      prev = std::move(next);
    }
    return observer.counts();
  }

  DistinguisherOptions Opts() {
    DistinguisherOptions opts;
    opts.alpha = 0.01;
    opts.num_bins = 16;
    return opts;
  }
};

TEST_F(UpdateAnalysisEndToEnd, StegHideHidesHotBlockUpdates) {
  const auto reference = RunStegHideCampaign(101, /*real_ops_per_round=*/0);
  const auto suspect = RunStegHideCampaign(202, /*real_ops_per_round=*/2);
  const auto verdict =
      analysis::DistinguishUpdateCounts(suspect, reference, Opts());
  EXPECT_FALSE(verdict.distinguished) << verdict.ToString();
}

TEST_F(UpdateAnalysisEndToEnd, StegFs2003IsBrokenByTheSameAttack) {
  // Same hot-block workload on the 2003 baseline, which updates in place
  // and issues no dummy traffic.
  storage::MemBlockDevice dev(kBlocks, 4096);
  stegfs::StegFsCore core(&dev, stegfs::StegFsOptions{303, true});
  ASSERT_TRUE(core.Format().ok());
  baseline::StegFs2003 fs(&core);
  auto id = fs.CreateFile();
  ASSERT_TRUE(id.ok());
  const size_t payload = core.payload_size();
  ASSERT_TRUE(fs.Write(*id, 0, Bytes(payload * 100, 1)).ok());

  UpdateAnalysisObserver observer(kBlocks);
  auto prev = storage::Snapshot::Capture(dev);
  ASSERT_TRUE(prev.ok());
  const Bytes fresh(payload, 0x99);
  for (int round = 0; round < kRounds; ++round) {
    for (int op = 0; op < 2; ++op) {
      ASSERT_TRUE(fs.UpdateBlock(*id, 3, fresh.data()).ok());
    }
    auto next = storage::Snapshot::Capture(dev);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(observer.ObserveDiff(*prev, *next).ok());
    prev = std::move(next);
  }

  // Reference: what the attacker knows dummy-only traffic looks like.
  const auto reference = RunStegHideCampaign(404, /*real_ops_per_round=*/0);
  const auto verdict = analysis::DistinguishUpdateCounts(observer.counts(),
                                                         reference, Opts());
  EXPECT_TRUE(verdict.distinguished) << verdict.ToString();
}

// =====================================================================
// Definition 1, traffic analysis: the request stream between agent and
// raw storage (reads included) must not reveal a skewed read workload
// when it is served through the oblivious storage. E11 at test scale.
// =====================================================================

class TrafficAnalysisEndToEnd : public ::testing::Test {
 protected:
  // Runs a read campaign against an oblivious store and returns the trace
  // observed on the wire. With `hot` true, 70 % of the reads hit one
  // record; otherwise all reads are dummy reads.
  storage::IoTrace RunObliviousCampaign(uint64_t seed, bool hot) {
    testing::TracedMemDevice dev(256, 4096);
    storage::TraceBlockDevice& traced = dev.traced();

    oblivious::ObliviousStoreOptions opts;
    opts.buffer_blocks = 4;
    opts.capacity_blocks = 64;
    opts.partition_base = 0;
    opts.scratch_base = 130;
    opts.drbg_seed = seed;
    auto store = oblivious::ObliviousStore::Create(&traced, opts);
    EXPECT_TRUE(store.ok());

    Bytes payload((*store)->payload_size(), 1);
    for (uint64_t id = 0; id < 64; ++id) {
      EXPECT_TRUE((*store)->Insert(id, payload.data()).ok());
    }
    traced.ClearTrace();  // the attacker analyses steady-state traffic

    Rng rng = testing::MakeTestRng(seed);
    Bytes out((*store)->payload_size());
    for (int i = 0; i < 500; ++i) {
      if (hot && rng.Bernoulli(0.7)) {
        EXPECT_TRUE((*store)->Read(7, out.data()).ok());
      } else {
        EXPECT_TRUE((*store)->DummyRead().ok());
      }
    }
    return traced.trace();
  }
};

TEST_F(TrafficAnalysisEndToEnd, ObliviousStoreHidesHotReads) {
  const auto reference = RunObliviousCampaign(11, /*hot=*/false);
  const auto suspect = RunObliviousCampaign(22, /*hot=*/true);
  DistinguisherOptions opts;
  opts.alpha = 0.01;
  opts.num_bins = 32;
  const auto verdict =
      analysis::DistinguishTraces(suspect, reference, 256, opts);
  EXPECT_FALSE(verdict.distinguished) << verdict.ToString();
}

TEST_F(TrafficAnalysisEndToEnd, DirectReadsAreBrokenByTheSameAttack) {
  // The same hot workload read directly from fixed locations (StegFS
  // without the oblivious cache).
  testing::TracedMemDevice dev(256, 4096);
  storage::TraceBlockDevice& traced = dev.traced();
  Bytes buf(4096);
  Rng rng = testing::MakeTestRng();
  storage::IoTrace reference;
  {
    // Dummy-only reference: uniform reads.
    for (int i = 0; i < 2000; ++i) {
      EXPECT_TRUE(traced.ReadBlock(rng.Uniform(256), buf.data()).ok());
    }
    reference = traced.trace();
    traced.ClearTrace();
  }
  for (int i = 0; i < 2000; ++i) {
    const uint64_t block = rng.Bernoulli(0.7) ? 42 : rng.Uniform(256);
    EXPECT_TRUE(traced.ReadBlock(block, buf.data()).ok());
  }
  DistinguisherOptions opts;
  opts.alpha = 0.01;
  opts.num_bins = 32;
  const auto verdict =
      analysis::DistinguishTraces(traced.trace(), reference, 256, opts);
  EXPECT_TRUE(verdict.distinguished);
}

// =====================================================================
// Full read/write system: volatile agent for writes, oblivious reader for
// reads, both over the same core, with content integrity throughout.
// =====================================================================

TEST(FullSystemTest, AgentWritesThenObliviousReads) {
  storage::MemBlockDevice steg_mem(2048, 4096);
  storage::MemBlockDevice obli_mem(256, 4096);
  stegfs::StegFsCore core(&steg_mem, stegfs::StegFsOptions{71, true});
  ASSERT_TRUE(core.Format().ok());

  VolatileAgent agent(&core);
  ASSERT_TRUE(agent.CreateDummyFile("carol", 200).ok());
  auto id = agent.CreateHiddenFile("carol");
  ASSERT_TRUE(id.ok());
  const size_t payload = core.payload_size();
  Bytes data(payload * 16);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 31);
  ASSERT_TRUE(agent.Write(*id, 0, data).ok());
  ASSERT_TRUE(agent.Flush(*id).ok());
  const auto fak = agent.GetFak(*id);
  ASSERT_TRUE(fak.ok());

  // Reads go through the oblivious path (§5.1: updates in the StegFS
  // partition, reads diverted to the oblivious storage).
  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = 4;
  opts.capacity_blocks = 64;
  opts.partition_base = 0;
  opts.scratch_base = 130;
  auto store = oblivious::ObliviousStore::Create(&obli_mem, opts);
  ASSERT_TRUE(store.ok());
  oblivious::StegPartitionReader reader(&core, store->get());

  auto file = core.LoadFile(*fak);
  ASSERT_TRUE(file.ok());
  file->agent_tag = 1;

  Bytes out(payload);
  Rng rng = testing::MakeTestRng();
  for (int i = 0; i < 300; ++i) {
    const uint64_t logical = rng.Uniform(16);
    ASSERT_TRUE(reader.ReadBlock(*file, logical, out.data()).ok());
    EXPECT_EQ(Bytes(out.begin(), out.end()),
              Bytes(data.begin() + logical * payload,
                    data.begin() + (logical + 1) * payload))
        << "logical " << logical;
  }
  EXPECT_LE(reader.stats().real_fetches, 16u);
  EXPECT_GT(reader.stats().cache_hits, 250u);
}

TEST(FullSystemTest, MixedWorkloadIntegrityUnderChurn) {
  // Two users, interleaved writes, dummy traffic, logouts, re-disclosures
  // — a soak test of the bookkeeping invariants.
  storage::MemBlockDevice dev(4096, 4096);
  stegfs::StegFsCore core(&dev, stegfs::StegFsOptions{81, true});
  ASSERT_TRUE(core.Format().ok());
  VolatileAgent agent(&core);
  ASSERT_TRUE(agent.CreateDummyFile("u1", 400).ok());
  ASSERT_TRUE(agent.CreateDummyFile("u2", 400).ok());

  const size_t payload = core.payload_size();
  auto f1 = agent.CreateHiddenFile("u1");
  auto f2 = agent.CreateHiddenFile("u2");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());

  // Mirror of expected contents.
  std::vector<Bytes> mirror1(50, Bytes(payload, 0)),
      mirror2(50, Bytes(payload, 0));
  ASSERT_TRUE(agent.Write(*f1, 0, Bytes(payload * 50, 0)).ok());
  ASSERT_TRUE(agent.Write(*f2, 0, Bytes(payload * 50, 0)).ok());

  Rng rng = testing::MakeTestRng();
  for (int op = 0; op < 400; ++op) {
    const bool first = rng.Bernoulli(0.5);
    const uint64_t block = rng.Uniform(50);
    Bytes fresh(payload);
    rng.Fill(fresh.data(), fresh.size());
    if (first) {
      ASSERT_TRUE(agent.Write(*f1, block * payload, fresh).ok());
      mirror1[block] = fresh;
    } else {
      ASSERT_TRUE(agent.Write(*f2, block * payload, fresh).ok());
      mirror2[block] = fresh;
    }
    if (op % 37 == 0) {
      ASSERT_TRUE(agent.IdleDummyUpdates(3).ok());
    }
  }

  for (uint64_t b = 0; b < 50; ++b) {
    EXPECT_EQ(*agent.Read(*f1, b * payload, payload), mirror1[b]) << b;
    EXPECT_EQ(*agent.Read(*f2, b * payload, payload), mirror2[b]) << b;
  }

  // u2 logs out and comes back; data intact.
  const auto fak2 = agent.GetFak(*f2);
  ASSERT_TRUE(agent.Logout("u2").ok());
  ASSERT_TRUE(agent.Write(*f1, 0, Bytes(payload, 0xee)).ok());
  mirror1[0] = Bytes(payload, 0xee);
  auto back = agent.DiscloseHiddenFile("u2", *fak2);
  ASSERT_TRUE(back.ok());
  for (uint64_t b = 0; b < 50; ++b) {
    EXPECT_EQ(*agent.Read(*back, b * payload, payload), mirror2[b]) << b;
  }
  EXPECT_EQ(*agent.Read(*f1, 0, payload), mirror1[0]);
}

}  // namespace
}  // namespace steghide
