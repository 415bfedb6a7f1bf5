#include <gtest/gtest.h>

#include <thread>

#include "agent/oblivious_agent.h"
#include "storage/mem_block_device.h"
#include "testing/rng.h"
#include "util/random.h"

namespace steghide::agent {
namespace {

class ObliviousAgentTest : public ::testing::Test {
 protected:
  ObliviousAgentTest()
      : steg_mem_(4096, 4096),
        cache_mem_(512, 4096),
        core_(&steg_mem_, stegfs::StegFsOptions{91, true}) {
    EXPECT_TRUE(core_.Format().ok());
    oblivious::ObliviousStoreOptions opts;
    opts.buffer_blocks = 8;
    opts.capacity_blocks = 128;  // k = 4
    opts.partition_base = 0;
    opts.scratch_base = 2 * 128 - 2 * 8;
    auto agent = ObliviousAgent::Create(&core_, &cache_mem_, opts);
    EXPECT_TRUE(agent.ok()) << agent.status().ToString();
    agent_ = std::move(agent).value();
    EXPECT_TRUE(agent_->CreateDummyFile("u", 400).ok());
  }

  Bytes Pattern(size_t n, uint8_t seed) {
    Bytes out(n);
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seed + i * 3);
    return out;
  }

  storage::MemBlockDevice steg_mem_;
  storage::MemBlockDevice cache_mem_;
  stegfs::StegFsCore core_;
  std::unique_ptr<ObliviousAgent> agent_;
};

TEST_F(ObliviousAgentTest, WriteThenObliviousReadRoundTrip) {
  auto id = agent_->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  const Bytes data = Pattern(30000, 5);
  ASSERT_TRUE(agent_->Write(*id, 0, data).ok());
  const auto back = agent_->Read(*id, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(ObliviousAgentTest, RepeatedReadsComeFromCache) {
  auto id = agent_->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  const size_t payload = core_.payload_size();
  ASSERT_TRUE(agent_->Write(*id, 0, Pattern(payload * 4, 1)).ok());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(agent_->Read(*id, 0, payload * 4).ok());
  }
  // §5.1.1: each block is fetched from the partition at most once.
  EXPECT_LE(agent_->reader().stats().real_fetches, 4u);
}

TEST_F(ObliviousAgentTest, WriteAfterReadIsVisibleObliviously) {
  auto id = agent_->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  const size_t payload = core_.payload_size();
  ASSERT_TRUE(agent_->Write(*id, 0, Bytes(payload * 3, 0x11)).ok());
  // Prime the cache.
  ASSERT_TRUE(agent_->Read(*id, 0, payload * 3).ok());

  // Overwrite the middle block, then read through the cache again.
  ASSERT_TRUE(agent_->Write(*id, payload, Bytes(payload, 0x22)).ok());
  const auto back = agent_->Read(*id, 0, payload * 3);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Bytes(back->begin(), back->begin() + payload),
            Bytes(payload, 0x11));
  EXPECT_EQ(Bytes(back->begin() + payload, back->begin() + 2 * payload),
            Bytes(payload, 0x22));
  EXPECT_EQ(Bytes(back->begin() + 2 * payload, back->end()),
            Bytes(payload, 0x11));
}

TEST_F(ObliviousAgentTest, PartialWritesPreserveSurroundings) {
  auto id = agent_->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  const Bytes data = Pattern(10000, 9);
  ASSERT_TRUE(agent_->Write(*id, 0, data).ok());
  ASSERT_TRUE(agent_->Read(*id, 0, data.size()).ok());  // prime cache

  ASSERT_TRUE(agent_->Write(*id, 5000, Bytes(100, 0xee)).ok());
  const auto back = agent_->Read(*id, 4990, 120);
  ASSERT_TRUE(back.ok());
  for (int i = 0; i < 10; ++i) EXPECT_EQ((*back)[i], data[4990 + i]);
  for (int i = 10; i < 110; ++i) EXPECT_EQ((*back)[i], 0xee);
  for (int i = 110; i < 120; ++i) EXPECT_EQ((*back)[i], data[5100 + i - 110]);
  EXPECT_EQ(*agent_->FileSize(*id), data.size());  // no accidental growth
}

TEST_F(ObliviousAgentTest, WritesArePersistedOnStegPartition) {
  auto id = agent_->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  const Bytes data = Pattern(20000, 13);
  ASSERT_TRUE(agent_->Write(*id, 0, data).ok());
  ASSERT_TRUE(agent_->Read(*id, 0, 1).ok());  // cache holds block 0
  ASSERT_TRUE(agent_->Write(*id, 0, Bytes(10, 0x77)).ok());
  ASSERT_TRUE(agent_->Flush(*id).ok());
  const auto fak = agent_->GetFak(*id);
  ASSERT_TRUE(agent_->Logout("u").ok());

  // The cache dies with the agent (it is volatile memory + a shuffled
  // scratch area); the StegFS partition alone must carry the truth.
  auto re = agent_->DiscloseHiddenFile("u", *fak);
  ASSERT_TRUE(re.ok());
  const auto back = agent_->volatile_agent().Read(*re, 0, 10);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, Bytes(10, 0x77));
}

TEST_F(ObliviousAgentTest, SoakMixedOpsWithMirror) {
  auto id = agent_->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  const size_t payload = core_.payload_size();
  constexpr uint64_t kBlocks = 20;
  std::vector<Bytes> mirror(kBlocks, Bytes(payload, 0));
  ASSERT_TRUE(agent_->Write(*id, 0, Bytes(kBlocks * payload, 0)).ok());

  Rng rng = testing::MakeTestRng();
  for (int op = 0; op < 300; ++op) {
    const uint64_t b = rng.Uniform(kBlocks);
    if (rng.Bernoulli(0.4)) {
      Bytes fresh(payload);
      rng.Fill(fresh.data(), fresh.size());
      ASSERT_TRUE(agent_->Write(*id, b * payload, fresh).ok());
      mirror[b] = fresh;
    } else {
      const auto got = agent_->Read(*id, b * payload, payload);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, mirror[b]) << "op " << op << " block " << b;
    }
    if (op % 25 == 0) {
      ASSERT_TRUE(agent_->IdleDummyOp().ok());
    }
  }
}

TEST_F(ObliviousAgentTest, ReadBatchServesMultipleRanges) {
  auto id = agent_->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  const Bytes data = Pattern(40000, 3);
  ASSERT_TRUE(agent_->Write(*id, 0, data).ok());

  const std::vector<ObliviousAgent::ReadRequest> requests = {
      {*id, 100, 500}, {*id, 19000, 2500}, {*id, 100, 500}, {*id, 39990, 100}};
  auto out = agent_->ReadGroup(requests);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), requests.size());
  EXPECT_EQ((*out)[0], Bytes(data.begin() + 100, data.begin() + 600));
  EXPECT_EQ((*out)[1], Bytes(data.begin() + 19000, data.begin() + 21500));
  EXPECT_EQ((*out)[2], (*out)[0]);
  EXPECT_EQ((*out)[3], Bytes(data.begin() + 39990, data.end()));  // clamped
}

TEST_F(ObliviousAgentTest, ReadBatchGroupsObliviousScans) {
  auto id = agent_->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  const size_t payload = core_.payload_size();
  ASSERT_TRUE(agent_->Write(*id, 0, Pattern(payload * 12, 5)).ok());
  // Prime the cache, then drain the agent buffer's view with more reads
  // so the batch below actually scans levels.
  ASSERT_TRUE(agent_->Read(*id, 0, payload * 12).ok());

  agent_->store().ResetStats();
  std::vector<ObliviousAgent::ReadRequest> requests;
  for (uint64_t b = 0; b < 12; ++b) {
    requests.push_back({*id, b * payload, payload});
  }
  auto out = agent_->ReadGroup(requests);
  ASSERT_TRUE(out.ok());
  // 12 cached blocks with an 8-block store buffer: at most 2 scan passes
  // (the one-at-a-time path would pay up to 12).
  EXPECT_LE(agent_->store().stats().scan_passes, 2u);
}

TEST_F(ObliviousAgentTest, WriteBatchAppliesOpsInOrder) {
  auto id = agent_->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  const Bytes base = Pattern(20000, 7);
  ASSERT_TRUE(agent_->Write(*id, 0, base).ok());
  ASSERT_TRUE(agent_->Read(*id, 0, base.size()).ok());  // prime cache

  std::vector<ObliviousAgent::WriteRequest> ops(3);
  ops[0] = {*id, 1000, Bytes(3000, 0x11)};
  ops[1] = {*id, 2500, Bytes(200, 0x22)};  // overlaps op 0; must win
  ops[2] = {*id, 19990, Bytes(120, 0x33)};  // grows the file by 110 bytes
  ASSERT_TRUE(agent_->WriteGroup(ops).ok());

  const auto back = agent_->Read(*id, 0, 30000);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 20110u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ((*back)[i], base[i]);
  for (int i = 1000; i < 2500; ++i) ASSERT_EQ((*back)[i], 0x11);
  for (int i = 2500; i < 2700; ++i) ASSERT_EQ((*back)[i], 0x22);
  for (int i = 2700; i < 4000; ++i) ASSERT_EQ((*back)[i], 0x11);
  for (int i = 4000; i < 19990; ++i) ASSERT_EQ((*back)[i], base[i]);
  for (int i = 19990; i < 20110; ++i) ASSERT_EQ((*back)[i], 0x33);
}

TEST_F(ObliviousAgentTest, BatchSoakMatchesMirrorProperty) {
  auto id = agent_->CreateHiddenFile("u");
  ASSERT_TRUE(id.ok());
  const size_t payload = core_.payload_size();
  constexpr uint64_t kBlocks = 16;
  std::vector<Bytes> mirror(kBlocks, Bytes(payload, 0));
  ASSERT_TRUE(agent_->Write(*id, 0, Bytes(kBlocks * payload, 0)).ok());

  Rng rng = testing::MakeTestRng();
  for (int round = 0; round < 60; ++round) {
    const size_t k = 1 + rng.Uniform(4);
    if (rng.Bernoulli(0.5)) {
      std::vector<ObliviousAgent::WriteRequest> ops(k);
      for (size_t i = 0; i < k; ++i) {
        const uint64_t b = rng.Uniform(kBlocks);
        ops[i].file = *id;
        ops[i].offset = b * payload;
        ops[i].data.resize(payload);
        rng.Fill(ops[i].data.data(), payload);
        mirror[b] = ops[i].data;
      }
      ASSERT_TRUE(agent_->WriteGroup(ops).ok()) << "round " << round;
    } else {
      std::vector<ObliviousAgent::ReadRequest> requests(k);
      std::vector<uint64_t> blocks(k);
      for (size_t i = 0; i < k; ++i) {
        blocks[i] = rng.Uniform(kBlocks);
        requests[i] = {*id, blocks[i] * payload, payload};
      }
      auto out = agent_->ReadGroup(requests);
      ASSERT_TRUE(out.ok()) << "round " << round;
      for (size_t i = 0; i < k; ++i) {
        ASSERT_EQ((*out)[i], mirror[blocks[i]])
            << "round " << round << " block " << blocks[i];
      }
    }
  }
}

TEST_F(ObliviousAgentTest, GeometryErrorsSurfaceAtCreate) {
  oblivious::ObliviousStoreOptions bad;
  bad.buffer_blocks = 8;
  bad.capacity_blocks = 24;  // not B * 2^k
  EXPECT_FALSE(ObliviousAgent::Create(&core_, &cache_mem_, bad).ok());
}

// ---- Issuing thread ------------------------------------------------------

// The fixture's system with one 40-block hidden file. Every byte it writes
// comes from the core's and the store's generators, in op order.
class HandOffSystem {
 public:
  HandOffSystem()
      : steg_mem_(4096, 4096),
        cache_mem_(512, 4096),
        core_(&steg_mem_, stegfs::StegFsOptions{91, true}) {
    EXPECT_TRUE(core_.Format().ok());
    oblivious::ObliviousStoreOptions opts;
    opts.buffer_blocks = 8;
    opts.capacity_blocks = 128;
    opts.partition_base = 0;
    opts.scratch_base = 2 * 128 - 2 * 8;
    auto agent = ObliviousAgent::Create(&core_, &cache_mem_, opts);
    EXPECT_TRUE(agent.ok()) << agent.status().ToString();
    agent_ = std::move(agent).value();
    EXPECT_TRUE(agent_->CreateDummyFile("u", 400).ok());
    auto id = agent_->CreateHiddenFile("u");
    EXPECT_TRUE(id.ok());
    file_ = *id;
    EXPECT_TRUE(
        agent_->Write(file_, 0, Bytes(40 * core_.payload_size(), 0x3c)).ok());
  }

  /// Round r: a partial write, then an 8-block read elsewhere in the file.
  void Round(int r) {
    const size_t payload = core_.payload_size();
    const Bytes data(300, static_cast<uint8_t>(r));
    ASSERT_TRUE(agent_->Write(file_, (r * 7 % 40) * payload + 100, data).ok());
    ASSERT_TRUE(agent_->Read(file_, (r * 5 % 32) * payload, 8 * payload).ok());
  }

  static Bytes Image(const storage::MemBlockDevice& dev) {
    return Bytes(dev.BlockData(0),
                 dev.BlockData(0) + dev.num_blocks() * dev.block_size());
  }
  Bytes SteganographicImage() const { return Image(steg_mem_); }
  Bytes CacheImage() const { return Image(cache_mem_); }

 private:
  storage::MemBlockDevice steg_mem_;
  storage::MemBlockDevice cache_mem_;
  stegfs::StegFsCore core_;
  std::unique_ptr<ObliviousAgent> agent_;
  ObliviousAgent::FileId file_ = 0;
};

// Setup runs on one thread and serving on another (the dispatcher's I/O
// thread). Handing a system over must not change what it writes: both
// partitions end byte-identical to a twin that never changed threads.
TEST(ObliviousAgentThreadTest, HandOffKeepsTheImages) {
  HandOffSystem stay;
  HandOffSystem moved;
  for (int r = 0; r < 20; ++r) {
    stay.Round(r);
    moved.Round(r);
  }
  for (int r = 20; r < 60; ++r) stay.Round(r);
  std::thread other([&moved] {
    for (int r = 20; r < 60; ++r) moved.Round(r);
  });
  other.join();
  EXPECT_TRUE(stay.SteganographicImage() == moved.SteganographicImage());
  EXPECT_TRUE(stay.CacheImage() == moved.CacheImage());
}

}  // namespace
}  // namespace steghide::agent
