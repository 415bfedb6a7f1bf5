// FileBlockDevice hardening: persistence-specific behaviour (flush
// ordering, close/reopen round-trips, geometry validation) that the
// MemBlockDevice-backed suites cannot cover, plus integration with the
// layers that will sit on a file-backed volume in a deployment
// (retry over faults, StegFsCore header trees).

#include <gtest/gtest.h>

#include <utility>

#include "stegfs/stegfs_core.h"
#include "storage/fault_device.h"
#include "storage/file_block_device.h"
#include "storage/retry_device.h"
#include "testing/golden.h"
#include "testing/temp_dir.h"

namespace steghide::storage {
namespace {

using steghide::testing::DeviceMatchesGolden;
using steghide::testing::FillGolden;
using steghide::testing::GoldenBlock;

class FileDeviceTest : public steghide::testing::TempDirTest {
 protected:
  void SetUp() override { path_ = TempFile("vol.img"); }
  std::string path_;
};

TEST_F(FileDeviceTest, FlushMakesWritesVisibleToIndependentHandle) {
  auto writer = FileBlockDevice::Create(path_, 8, 512);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const Bytes image = GoldenBlock(1, 5, 512);
  ASSERT_TRUE(writer->WriteBlock(5, image.data()).ok());
  ASSERT_TRUE(writer->Flush().ok());

  // A second descriptor opened while the writer is still live must see
  // the flushed write — pwrite+fsync ordering, not close-time luck.
  auto reader = FileBlockDevice::Open(path_, 512);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(steghide::testing::BlockEquals(*reader, 5, image));
}

TEST_F(FileDeviceTest, CloseReopenRoundTripsEveryBlock) {
  {
    auto dev = FileBlockDevice::Create(path_, 32, 512);
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE(FillGolden(*dev, /*seed=*/14).ok());
    ASSERT_TRUE(dev->Flush().ok());
  }
  auto dev = FileBlockDevice::Open(path_, 512);
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ(dev->num_blocks(), 32u);
  EXPECT_TRUE(DeviceMatchesGolden(*dev, 14));
}

TEST_F(FileDeviceTest, ReopenWithCoarserBlockSizeSeesSameBytes) {
  {
    auto dev = FileBlockDevice::Create(path_, 16, 512);
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE(FillGolden(*dev, 15).ok());
    ASSERT_TRUE(dev->Flush().ok());
  }
  auto dev = FileBlockDevice::Open(path_, 1024);
  ASSERT_TRUE(dev.ok());
  ASSERT_EQ(dev->num_blocks(), 8u);
  // Each 1024-byte block is the concatenation of two 512-byte blocks.
  Bytes coarse(1024);
  ASSERT_TRUE(dev->ReadBlock(3, coarse.data()).ok());
  Bytes expected = GoldenBlock(15, 6, 512);
  const Bytes second = GoldenBlock(15, 7, 512);
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(coarse, expected);
}

TEST_F(FileDeviceTest, ZeroBlockSizeRejected) {
  EXPECT_EQ(FileBlockDevice::Create(path_, 8, 0).status().code(),
            StatusCode::kInvalidArgument);
  {
    auto dev = FileBlockDevice::Create(path_, 8, 512);
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE(dev->Flush().ok());
  }
  EXPECT_EQ(FileBlockDevice::Open(path_, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FileDeviceTest, OverflowingGeometryRejected) {
  const auto dev = FileBlockDevice::Create(path_, UINT64_MAX / 2, 4096);
  EXPECT_EQ(dev.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FileDeviceTest, MovedFromDeviceFlushIsNoop) {
  auto created = FileBlockDevice::Create(path_, 4, 512);
  ASSERT_TRUE(created.ok());
  FileBlockDevice moved = std::move(created).value();
  EXPECT_TRUE(moved.Flush().ok());
  // `created`'s storage has been pilfered; flushing the husk must not
  // surface an EBADF from the closed descriptor.
  EXPECT_TRUE(created->Flush().ok());
}

TEST_F(FileDeviceTest, VectoredReadMatchesSingleReads) {
  auto dev = FileBlockDevice::Create(path_, 16, 512);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(FillGolden(*dev, 16).ok());
  const std::vector<uint64_t> ids = {12, 0, 7, 7};
  Bytes out;
  ASSERT_TRUE(dev->ReadBlocks(ids, out).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(Bytes(out.begin() + i * 512, out.begin() + (i + 1) * 512),
              GoldenBlock(16, ids[i], 512))
        << "position " << i;
  }
}

TEST_F(FileDeviceTest, RetryOverFaultOverFileRecoversTransientErrors) {
  // The deployment error path end to end: a file-backed volume with a
  // flaky controller (every 3rd op fails once) behind the retry layer.
  // Every logical op must succeed, and the persisted image must match a
  // fault-free run's.
  auto file = FileBlockDevice::Create(path_, 16, 512);
  ASSERT_TRUE(file.ok());
  FaultPlan plan;
  plan.seed = 21;
  FaultSpec flaky;
  flaky.kind = FaultSpec::Kind::kTransientError;
  flaky.every_nth = 3;
  plan.faults.push_back(flaky);
  FaultInjectionBlockDevice fault(&*file, plan);
  RetryingBlockDevice retry(&fault);

  ASSERT_TRUE(FillGolden(retry, /*seed=*/33).ok());
  EXPECT_TRUE(DeviceMatchesGolden(retry, 33));
  ASSERT_TRUE(retry.Flush().ok());

  const RetryStats rs = retry.stats();
  EXPECT_GT(rs.retries, 0u);
  EXPECT_EQ(rs.exhausted, 0u);
  EXPECT_GT(fault.stats().injected_errors, 0u);

  // The bytes that reached the platter are the golden image, not a torn
  // interleaving of failed attempts.
  auto reopened = FileBlockDevice::Open(path_, 512);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(DeviceMatchesGolden(*reopened, 33));
}

TEST_F(FileDeviceTest, ExhaustedRetryBudgetSurfacesIoError) {
  auto file = FileBlockDevice::Create(path_, 4, 512);
  ASSERT_TRUE(file.ok());
  FaultPlan plan;
  FaultSpec dead_sector;
  dead_sector.kind = FaultSpec::Kind::kStickyError;
  dead_sector.first_block = 2;
  dead_sector.last_block = 2;
  plan.faults.push_back(dead_sector);
  FaultInjectionBlockDevice fault(&*file, plan);
  RetryingBlockDevice retry(&fault, RetryPolicy{.max_attempts = 4});

  const Bytes image = GoldenBlock(3, 2, 512);
  const Status status = retry.WriteBlock(2, image.data());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  const RetryStats rs = retry.stats();
  EXPECT_EQ(rs.retries, 3u);
  EXPECT_EQ(rs.exhausted, 1u);
  EXPECT_EQ(rs.recovered, 0u);
  // Blocks outside the bad region keep working.
  EXPECT_TRUE(retry.WriteBlock(1, image.data()).ok());
}

TEST_F(FileDeviceTest, StegFsHeaderTreeSurvivesReopen) {
  stegfs::FileAccessKey fak;
  Bytes payload_written;
  {
    auto dev = FileBlockDevice::Create(path_, 128, 4096);
    ASSERT_TRUE(dev.ok());
    stegfs::StegFsCore core(&*dev, stegfs::StegFsOptions{51, true});
    ASSERT_TRUE(core.Format().ok());

    stegfs::HiddenFile file;
    file.fak = stegfs::FileAccessKey::Random(core.drbg(), core.num_blocks());
    fak = file.fak;
    payload_written = Bytes(core.payload_size(), 0x42);
    for (uint64_t i = 0; i < 3; ++i) {
      const uint64_t physical = 10 + i;
      ASSERT_TRUE(
          core.WriteDataBlockAt(file, physical, payload_written.data()).ok());
      file.block_ptrs.push_back(physical);
    }
    file.file_size = 3 * core.payload_size();
    ASSERT_TRUE(core.StoreFile(file).ok());
    ASSERT_TRUE(dev->Flush().ok());
  }

  auto dev = FileBlockDevice::Open(path_, 4096);
  ASSERT_TRUE(dev.ok());
  stegfs::StegFsCore core(&*dev, stegfs::StegFsOptions{52, true});
  auto loaded = core.LoadFile(fak);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_data_blocks(), 3u);
  EXPECT_EQ(loaded->file_size, 3 * core.payload_size());
  Bytes out(core.payload_size());
  ASSERT_TRUE(core.ReadFileBlock(*loaded, 1, out.data()).ok());
  EXPECT_EQ(out, payload_written);
}

}  // namespace
}  // namespace steghide::storage
