#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "agent/volatile_agent.h"
#include "storage/mem_block_device.h"

namespace steghide::agent {
namespace {

using stegfs::FileAccessKey;
using stegfs::StegFsOptions;

class VolatileAgentTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kBlocks = 4096;

  VolatileAgentTest()
      : dev_(kBlocks, 4096), core_(&dev_, StegFsOptions{21, true}) {
    EXPECT_TRUE(core_.Format().ok());
    agent_ = std::make_unique<VolatileAgent>(&core_);
  }

  /// Standard session: the user provisions one dummy file alongside his
  /// data.
  VolatileAgent::FileId ProvisionDummy(const std::string& user,
                                       uint64_t blocks = 256) {
    auto id = agent_->CreateDummyFile(user, blocks);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  }

  Bytes Pattern(size_t n, uint8_t seed) {
    Bytes out(n);
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seed ^ (i * 13));
    return out;
  }

  storage::MemBlockDevice dev_;
  stegfs::StegFsCore core_;
  std::unique_ptr<VolatileAgent> agent_;
};

TEST_F(VolatileAgentTest, CreateWriteReadRoundTrip) {
  ProvisionDummy("alice");
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  const Bytes data = Pattern(30000, 1);
  ASSERT_TRUE(agent_->Write(*id, 0, data).ok());
  const auto back = agent_->Read(*id, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(VolatileAgentTest, WritesRequireDummyBlocks) {
  // Without any dummy file the selection loop has no relocation targets.
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(agent_->Write(*id, 0, Bytes(100, 1)).ok());
}

TEST_F(VolatileAgentTest, CannotWriteToDummyFile) {
  const auto dummy = ProvisionDummy("alice");
  EXPECT_EQ(agent_->Write(dummy, 0, Bytes(10, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(VolatileAgentTest, DummyPoolSizeIsPreservedByUpdates) {
  ProvisionDummy("alice", 300);
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  const size_t payload = core_.payload_size();
  ASSERT_TRUE(agent_->Write(*id, 0, Bytes(payload * 20, 2)).ok());

  const uint64_t dummies_after_population = agent_->dummy_block_count();
  // In-place-range updates: relocations swap roles, so the pool size must
  // not drift.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        agent_->Write(*id, (i % 20) * payload, Bytes(payload, 3)).ok());
  }
  EXPECT_EQ(agent_->dummy_block_count(), dummies_after_population);
}

TEST_F(VolatileAgentTest, PersistsAcrossLogoutAndRestart) {
  ProvisionDummy("alice");
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  const Bytes data = Pattern(50000, 7);
  ASSERT_TRUE(agent_->Write(*id, 0, data).ok());
  const auto fak = agent_->GetFak(*id);
  ASSERT_TRUE(fak.ok());
  ASSERT_TRUE(agent_->Logout("alice").ok());

  // Simulate an agent restart: a fresh volatile agent knows nothing until
  // the user disclosed his FAK again.
  agent_ = std::make_unique<VolatileAgent>(&core_);
  EXPECT_EQ(agent_->DomainSize(), 0u);
  auto reopened = agent_->DiscloseHiddenFile("alice", *fak);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto back = agent_->Read(*reopened, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(VolatileAgentTest, DummyFileSurvivesLogoutWithConsistentHeader) {
  const auto dummy_id = ProvisionDummy("alice", 64);
  const auto dummy_fak = agent_->GetFak(dummy_id);
  ASSERT_TRUE(dummy_fak.ok());
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  // These updates mutate the dummy file's membership via swaps.
  ASSERT_TRUE(agent_->Write(*id, 0, Bytes(8 * core_.payload_size(), 1)).ok());
  ASSERT_TRUE(agent_->Logout("alice").ok());

  // Re-disclose: the on-disk dummy header must reflect all swaps. The
  // hidden file's 8 appended blocks were claimed out of the dummy pool, so
  // 56 dummies remain.
  auto re = agent_->DiscloseDummyFile("alice", *dummy_fak);
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  EXPECT_EQ(agent_->dummy_block_count(), 56u);
}

TEST_F(VolatileAgentTest, PlausibleDeniabilityWithDecoyContentKey) {
  ProvisionDummy("alice");
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  const Bytes secret = Pattern(4000, 9);
  ASSERT_TRUE(agent_->Write(*id, 0, secret).ok());
  ASSERT_TRUE(agent_->Flush(*id).ok());
  const auto fak = agent_->GetFak(*id);
  ASSERT_TRUE(fak.ok());
  ASSERT_TRUE(agent_->Logout("alice").ok());

  // Coerced, alice hands over the header components with a decoy content
  // key and claims "just a dummy file". The adversary can open it as a
  // dummy file without any error...
  const FileAccessKey decoy = fak->WithDecoyContentKey(core_.drbg());
  auto as_dummy = agent_->DiscloseDummyFile("adversary", decoy);
  ASSERT_TRUE(as_dummy.ok());
  // ...and what he reads is indistinguishable garbage, not the secret.
  const auto read = agent_->Read(*as_dummy, 0, secret.size());
  // Dummy files cannot be Read through the user API; verify via core.
  Bytes out(core_.payload_size());
  stegfs::HiddenFile probe;
  {
    auto loaded = core_.LoadFile(decoy);
    ASSERT_TRUE(loaded.ok());
    probe = std::move(loaded).value();
  }
  ASSERT_TRUE(core_.ReadFileBlock(probe, 0, out.data()).ok());
  EXPECT_NE(Bytes(out.begin(), out.begin() + secret.size()), secret);
  (void)read;
}

TEST_F(VolatileAgentTest, TruncateFeedsBlocksBackToDummyFile) {
  ProvisionDummy("alice", 128);
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  const size_t payload = core_.payload_size();
  ASSERT_TRUE(agent_->Write(*id, 0, Bytes(payload * 12, 5)).ok());
  const uint64_t dummies_before = agent_->dummy_block_count();
  ASSERT_TRUE(agent_->Truncate(*id, payload * 4).ok());
  EXPECT_EQ(agent_->dummy_block_count(), dummies_before + 8);
  EXPECT_EQ(*agent_->FileSize(*id), payload * 4);
}

TEST_F(VolatileAgentTest, DeleteFileAbsorbsEverything) {
  ProvisionDummy("alice", 128);
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(agent_->Write(*id, 0, Bytes(5 * core_.payload_size(), 1)).ok());
  const auto fak = agent_->GetFak(*id);
  const uint64_t domain_before = agent_->DomainSize();
  ASSERT_TRUE(agent_->DeleteFile(*id).ok());
  // Every block stays disclosed (absorbed by the dummy file).
  EXPECT_EQ(agent_->DomainSize(), domain_before);
  // The header was scrubbed: re-disclosure fails.
  EXPECT_FALSE(agent_->DiscloseHiddenFile("alice", *fak).ok());
}

TEST_F(VolatileAgentTest, OversizedDummyFileRejected) {
  const uint64_t cap = stegfs::MaxFileBlocks(core_.codec().block_size());
  EXPECT_EQ(agent_->CreateDummyFile("alice", cap + 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(VolatileAgentTest, CannotDeleteLastDummyFile) {
  const auto dummy = ProvisionDummy("alice", 16);
  EXPECT_EQ(agent_->DeleteFile(dummy).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(VolatileAgentTest, MultiUserIsolationAndSharedDomain) {
  ProvisionDummy("alice", 64);
  ProvisionDummy("bob", 64);
  auto fa = agent_->CreateHiddenFile("alice");
  auto fb = agent_->CreateHiddenFile("bob");
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  const Bytes da = Pattern(20000, 11);
  const Bytes db = Pattern(20000, 22);
  ASSERT_TRUE(agent_->Write(*fa, 0, da).ok());
  ASSERT_TRUE(agent_->Write(*fb, 0, db).ok());

  // Interleaved updates: relocations may cross user boundaries, yet both
  // users' data stays intact.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(agent_->Write(*fa, (i % 4) * 4080, Bytes(100, 1)).ok());
    ASSERT_TRUE(agent_->Write(*fb, (i % 4) * 4080, Bytes(100, 2)).ok());
  }
  EXPECT_EQ(agent_->Read(*fa, 10000, 100)->size(), 100u);
  EXPECT_EQ(*agent_->Read(*fa, 19000, 1000),
            Bytes(da.begin() + 19000, da.end()));
  EXPECT_EQ(*agent_->Read(*fb, 19000, 1000),
            Bytes(db.begin() + 19000, db.end()));

  // Bob logs out; alice keeps working.
  ASSERT_TRUE(agent_->Logout("bob").ok());
  ASSERT_TRUE(agent_->Write(*fa, 0, Bytes(50, 3)).ok());
  EXPECT_FALSE(agent_->Read(*fb, 0, 10).ok());  // bob's handle is gone
}

TEST_F(VolatileAgentTest, DoubleDisclosureRejected) {
  ProvisionDummy("alice");
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  const auto fak = agent_->GetFak(*id);
  ASSERT_TRUE(agent_->Flush(*id).ok());
  EXPECT_EQ(agent_->DiscloseHiddenFile("alice", *fak).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(VolatileAgentTest, IdleDummyUpdatesPreserveData) {
  ProvisionDummy("alice", 200);
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  const Bytes data = Pattern(40000, 17);
  ASSERT_TRUE(agent_->Write(*id, 0, data).ok());
  ASSERT_TRUE(agent_->IdleDummyUpdates(500).ok());
  const auto back = agent_->Read(*id, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(VolatileAgentTest, GrowthAcrossIndirectBoundary) {
  ProvisionDummy("alice", 1200);
  auto id = agent_->CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  const size_t payload = core_.payload_size();
  const uint64_t blocks = stegfs::kNumDirectPtrs + 15;
  ASSERT_TRUE(agent_->Write(*id, 0, Bytes(blocks * payload, 0x77)).ok());
  ASSERT_TRUE(agent_->Flush(*id).ok());
  const auto fak = agent_->GetFak(*id);
  ASSERT_TRUE(agent_->Logout("alice").ok());

  auto re = agent_->DiscloseHiddenFile("alice", *fak);
  ASSERT_TRUE(re.ok());
  const auto back =
      agent_->Read(*re, (blocks - 3) * payload, 3 * payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, Bytes(3 * payload, 0x77));
}

// ---- One owner thread ------------------------------------------------------

/// MemBlockDevice whose next read, once armed, parks until released.
class LatchedReadDevice : public storage::MemBlockDevice {
 public:
  using MemBlockDevice::MemBlockDevice;
  using MemBlockDevice::ReadBlocks;

  void ArmNextRead() { armed_ = true; }
  void WaitUntilParked() { parked_.get_future().wait(); }
  void Release() { release_.set_value(); }

  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override {
    if (armed_.exchange(false)) {
      parked_.set_value();
      release_.get_future().wait();
    }
    return MemBlockDevice::ReadBlocks(ids, out);
  }

 private:
  std::atomic<bool> armed_{false};
  std::promise<void> parked_;
  std::promise<void> release_;
};

/// Parks one thread inside the device read of a VolatileAgent::Read and
/// calls VolatileAgent::Write from another.
void WriteDuringAParkedRead() {
  LatchedReadDevice dev(1024, 4096);
  stegfs::StegFsCore core(&dev, StegFsOptions{23, true});
  ASSERT_TRUE(core.Format().ok());
  VolatileAgent agent(&core);
  ASSERT_TRUE(agent.CreateDummyFile("alice", 64).ok());
  auto id = agent.CreateHiddenFile("alice");
  ASSERT_TRUE(id.ok());
  const Bytes data(2 * core.payload_size(), 0x5c);
  ASSERT_TRUE(agent.Write(*id, 0, data).ok());

  dev.ArmNextRead();
  std::thread reader([&] { (void)agent.Read(*id, 0, data.size()); });
  dev.WaitUntilParked();
  (void)agent.Write(*id, 0, data);
  dev.Release();
  reader.join();
}

// The checker compiles away under NDEBUG, so this case skips in the
// default RelWithDebInfo build and runs in Debug builds (CI's sanitize
// job). Threadsafe style: the child re-runs the test from the start
// instead of forking a process that already has threads.
TEST(VolatileAgentDeathTest, SecondThreadWriteDuringAReadAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "SerialCallChecker compiles away under NDEBUG";
#endif
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(WriteDuringAParkedRead(),
               "concurrent VolatileAgent calls break its one-owner-thread "
               "rule");
}

}  // namespace
}  // namespace steghide::agent
