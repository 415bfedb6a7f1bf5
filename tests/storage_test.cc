#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../perfbench/timing_device.h"
#include "storage/disk_model.h"
#include "storage/fault_device.h"
#include "storage/file_block_device.h"
#include "storage/mem_block_device.h"
#include "storage/sim_device.h"
#include "storage/thread_check.h"
#include "testing/device_factory.h"
#include "testing/golden.h"
#include "testing/rng.h"
#include "testing/temp_dir.h"
#include "util/random.h"

namespace steghide::storage {
namespace {

using steghide::testing::FillGolden;
using steghide::testing::GoldenBlock;
using steghide::testing::TracedMemDevice;

// ---- MemBlockDevice ---------------------------------------------------

TEST(MemBlockDeviceTest, RoundTrip) {
  MemBlockDevice dev(8, 512);
  Bytes data(512, 0xab);
  ASSERT_TRUE(dev.WriteBlock(3, data.data()).ok());
  Bytes out(512);
  ASSERT_TRUE(dev.ReadBlock(3, out.data()).ok());
  EXPECT_EQ(out, data);
}

TEST(MemBlockDeviceTest, ZeroInitialised) {
  MemBlockDevice dev(2, 64);
  Bytes out(64, 0xff);
  ASSERT_TRUE(dev.ReadBlock(1, out.data()).ok());
  EXPECT_EQ(out, Bytes(64, 0));
}

TEST(MemBlockDeviceTest, BoundsChecked) {
  MemBlockDevice dev(4, 64);
  Bytes buf(64);
  EXPECT_EQ(dev.ReadBlock(4, buf.data()).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev.WriteBlock(100, buf.data()).code(), StatusCode::kOutOfRange);
}

TEST(MemBlockDeviceTest, BytesOverloadValidatesSize) {
  MemBlockDevice dev(4, 64);
  Bytes wrong(63);
  EXPECT_EQ(dev.WriteBlock(0, wrong).code(), StatusCode::kInvalidArgument);
  Bytes out;
  ASSERT_TRUE(dev.ReadBlock(0, out).ok());
  EXPECT_EQ(out.size(), 64u);
}

// ---- FileBlockDevice ----------------------------------------------------

class FileBlockDeviceTest : public steghide::testing::TempDirTest {
 protected:
  void SetUp() override { path_ = TempFile("vol.img"); }
  std::string path_;
};

TEST_F(FileBlockDeviceTest, CreateWriteReopenRead) {
  {
    auto dev = FileBlockDevice::Create(path_, 16, 512);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    Bytes data(512, 0x5a);
    ASSERT_TRUE(dev->WriteBlock(7, data.data()).ok());
    ASSERT_TRUE(dev->Flush().ok());
  }
  auto dev = FileBlockDevice::Open(path_, 512);
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ(dev->num_blocks(), 16u);
  Bytes out(512);
  ASSERT_TRUE(dev->ReadBlock(7, out.data()).ok());
  EXPECT_EQ(out, Bytes(512, 0x5a));
}

TEST_F(FileBlockDeviceTest, OpenMissingFails) {
  auto dev = FileBlockDevice::Open(path_ + ".nope", 512);
  EXPECT_FALSE(dev.ok());
}

TEST_F(FileBlockDeviceTest, BoundsChecked) {
  auto dev = FileBlockDevice::Create(path_, 4, 512);
  ASSERT_TRUE(dev.ok());
  Bytes buf(512);
  EXPECT_FALSE(dev->ReadBlock(4, buf.data()).ok());
}

// ---- DiskModel ------------------------------------------------------------

DiskModelParams TestParams() { return DiskModelParams{}; }

TEST(DiskModelTest, SequentialIsMuchCheaperThanRandom) {
  DiskModel model(TestParams(), 1 << 18, 4096);
  const double first = model.Access(1000);        // random (no position)
  const double second = model.Access(1001);       // sequential
  const double third = model.Access(200000);      // long seek
  EXPECT_GT(first, 20 * second);
  EXPECT_GT(third, 20 * second);
}

TEST(DiskModelTest, ClockAccumulates) {
  DiskModel model(TestParams(), 1024, 4096);
  EXPECT_DOUBLE_EQ(model.clock_ms(), 0.0);
  const double c1 = model.Access(10);
  const double c2 = model.Access(500);
  EXPECT_DOUBLE_EQ(model.clock_ms(), c1 + c2);
  model.AdvanceClock(5.0);
  EXPECT_DOUBLE_EQ(model.clock_ms(), c1 + c2 + 5.0);
}

TEST(DiskModelTest, SeekCostGrowsWithDistance) {
  DiskModel model(TestParams(), 1 << 20, 4096);
  (void)model.Access(0);
  const double near = model.PeekAccessCost(100);
  const double far = model.PeekAccessCost(1 << 19);
  EXPECT_LT(near, far);
}

TEST(DiskModelTest, AverageSeekCalibration) {
  // A seek across a third of the disk should cost about avg_seek +
  // rotational + transfer + overhead.
  DiskModelParams p;
  DiskModel model(p, 3 << 20, 4096);
  (void)model.Access(0);
  const double expected = p.controller_overhead_ms + p.avg_seek_ms +
                          0.5 * 60e3 / p.rpm +
                          4096.0 / (p.transfer_mb_per_s * 1e6) * 1e3;
  EXPECT_NEAR(model.PeekAccessCost(1 << 20), expected, 0.05);
}

TEST(DiskModelTest, SequentialRunCounting) {
  DiskModel model(TestParams(), 4096, 4096);
  (void)model.Access(5);
  (void)model.Access(6);
  (void)model.Access(7);
  (void)model.Access(100);
  EXPECT_EQ(model.sequential_accesses(), 2u);
  EXPECT_EQ(model.random_accesses(), 2u);
}

TEST(DiskModelTest, InvalidateHeadPosition) {
  DiskModel model(TestParams(), 4096, 4096);
  (void)model.Access(5);
  model.InvalidateHeadPosition();
  (void)model.Access(6);  // would have been sequential
  EXPECT_EQ(model.sequential_accesses(), 0u);
}

TEST(DiskModelTest, FullStrokeCap) {
  DiskModelParams p;
  DiskModel model(p, 1 << 24, 4096);
  (void)model.Access(0);
  const double worst = model.PeekAccessCost((1 << 24) - 1);
  EXPECT_LE(worst, p.controller_overhead_ms + p.full_stroke_ms +
                       0.5 * 60e3 / p.rpm + 1.0);
}

// ---- SimBlockDevice ---------------------------------------------------------

TEST(SimBlockDeviceTest, ForwardsAndCharges) {
  MemBlockDevice mem(128, 4096);
  SimBlockDevice sim(&mem, DiskModelParams{});
  Bytes data(4096, 0x11);
  ASSERT_TRUE(sim.WriteBlock(5, data.data()).ok());
  Bytes out(4096);
  ASSERT_TRUE(sim.ReadBlock(5, out.data()).ok());
  EXPECT_EQ(out, data);
  EXPECT_GT(sim.clock_ms(), 0.0);
  EXPECT_EQ(sim.stats().reads, 1u);
  EXPECT_EQ(sim.stats().writes, 1u);
}

TEST(SimBlockDeviceTest, SequentialStatsTracked) {
  MemBlockDevice mem(128, 4096);
  SimBlockDevice sim(&mem, DiskModelParams{});
  Bytes buf(4096);
  for (uint64_t b = 0; b < 10; ++b) ASSERT_TRUE(sim.ReadBlock(b, buf.data()).ok());
  EXPECT_EQ(sim.stats().sequential, 9u);
  EXPECT_EQ(sim.stats().random, 1u);
}

TEST(SimBlockDeviceTest, SequentialScanFasterThanRandomScan) {
  MemBlockDevice mem(4096, 4096);
  Bytes buf(4096);

  SimBlockDevice seq(&mem, DiskModelParams{});
  for (uint64_t b = 0; b < 1000; ++b) ASSERT_TRUE(seq.ReadBlock(b, buf.data()).ok());

  SimBlockDevice rnd(&mem, DiskModelParams{});
  Rng rng = steghide::testing::MakeTestRng();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(rnd.ReadBlock(rng.Uniform(4096), buf.data()).ok());
  }
  EXPECT_GT(rnd.clock_ms(), 10 * seq.clock_ms());
}

TEST(SimBlockDeviceTest, ErrorsAreNotCharged) {
  MemBlockDevice mem(4, 4096);
  SimBlockDevice sim(&mem, DiskModelParams{});
  Bytes buf(4096);
  EXPECT_FALSE(sim.ReadBlock(99, buf.data()).ok());
  EXPECT_DOUBLE_EQ(sim.clock_ms(), 0.0);
  EXPECT_EQ(sim.stats().reads, 0u);
}

TEST(SimBlockDeviceTest, FailedBatchChargesOnlyTheBlocksBeforeTheFailure) {
  // Mem -> Fault -> Sim: the third block of the batch fails once.
  MemBlockDevice mem(8, 4096);
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kTransientError;
  spec.ops = FaultSpec::OpFilter::kRead;
  spec.start_after = 2;
  spec.max_fires = 1;
  FaultInjectionBlockDevice fault(&mem, FaultPlan{{spec}});
  SimBlockDevice sim(&fault, DiskModelParams{});
  const std::vector<uint64_t> ids = {0, 1, 2, 3};
  Bytes out;
  EXPECT_EQ(sim.ReadBlocks(ids, out).code(), StatusCode::kIoError);
  EXPECT_EQ(sim.stats().reads, 2u);

  // The failed batch costs what its two served blocks cost on a clean
  // device.
  MemBlockDevice clean_mem(8, 4096);
  SimBlockDevice twin(&clean_mem, DiskModelParams{});
  const std::vector<uint64_t> served = {0, 1};
  ASSERT_TRUE(twin.ReadBlocks(served, out).ok());
  EXPECT_DOUBLE_EQ(sim.clock_ms(), twin.clock_ms());
}

// ---- Vectored I/O through a per-block decorator -----------------------

TEST(VectoredIoTest, TracedReadBlocksPreservesSubmissionOrder) {
  TracedMemDevice dev(16, 512);
  ASSERT_TRUE(FillGolden(dev.mem(), /*seed=*/3).ok());
  const std::vector<uint64_t> ids = {9, 2, 9, 0};
  Bytes out;
  ASSERT_TRUE(dev.traced().ReadBlocks(ids, out).ok());
  ASSERT_EQ(out.size(), ids.size() * 512);
  for (size_t i = 0; i < ids.size(); ++i) {
    const Bytes expected = GoldenBlock(3, ids[i], 512);
    EXPECT_EQ(Bytes(out.begin() + i * 512, out.begin() + (i + 1) * 512),
              expected)
        << "block " << ids[i];
  }
  const IoTrace expected = {{TraceEvent::Kind::kRead, 9},
                            {TraceEvent::Kind::kRead, 2},
                            {TraceEvent::Kind::kRead, 9},
                            {TraceEvent::Kind::kRead, 0}};
  EXPECT_EQ(dev.trace(), expected);
}

TEST(VectoredIoTest, TracedWriteBlocksPreservesSubmissionOrder) {
  TracedMemDevice dev(8, 512);
  const std::vector<uint64_t> ids = {5, 1, 6};
  Bytes data;
  for (uint64_t id : ids) {
    const Bytes block = GoldenBlock(7, id, 512);
    data.insert(data.end(), block.begin(), block.end());
  }
  ASSERT_TRUE(dev.traced().WriteBlocks(ids, data.data()).ok());
  const IoTrace expected = {{TraceEvent::Kind::kWrite, 5},
                            {TraceEvent::Kind::kWrite, 1},
                            {TraceEvent::Kind::kWrite, 6}};
  EXPECT_EQ(dev.trace(), expected);
  for (uint64_t id : ids) {
    EXPECT_TRUE(
        steghide::testing::BlockEquals(dev.mem(), id, GoldenBlock(7, id, 512)));
  }
}

TEST(VectoredIoTest, OutOfRangeIdFailsWholeBatch) {
  MemBlockDevice mem(4, 512);
  const std::vector<uint64_t> ids = {1, 99};
  Bytes out;
  EXPECT_EQ(mem.ReadBlocks(ids, out).code(), StatusCode::kOutOfRange);
}

// ---- perfbench's TimingBlockDevice ------------------------------------

TEST(TimingBlockDeviceTest, CountsCallsAndBlocksAndForwardsBytes) {
  MemBlockDevice mem(8, 512);
  perfbench::TimingBlockDevice timing(&mem, /*record_bursts=*/false);
  const Bytes block = GoldenBlock(5, 6, 512);
  ASSERT_TRUE(timing.WriteBlock(6, block.data()).ok());
  const std::vector<uint64_t> ids = {6, 0, 6, 3};
  Bytes out;
  ASSERT_TRUE(timing.ReadBlocks(ids, out).ok());
  EXPECT_EQ(timing.calls(), 2u);
  EXPECT_EQ(timing.blocks(), 5u);
  EXPECT_EQ(Bytes(out.begin(), out.begin() + 512), block);
  EXPECT_EQ(Bytes(out.begin() + 1024, out.begin() + 1536), block);
  EXPECT_EQ(Bytes(out.begin() + 512, out.begin() + 1024), Bytes(512, 0));
  EXPECT_TRUE(steghide::testing::BlockEquals(mem, 6, block));
}

// ---- SerialCallChecker ----------------------------------------------------
//
// The checker compiles away under NDEBUG, so these cases skip in the
// default RelWithDebInfo build and run in Debug builds (CI's sanitize
// job). The abort case is a threadsafe-style death test: the child
// process re-runs the test from the start instead of forking a process
// that already has threads.

TEST(SerialCallCheckerTest, SameThreadNestingAndSequentialHandOffPass) {
#ifdef NDEBUG
  GTEST_SKIP() << "SerialCallChecker compiles away under NDEBUG";
#endif
  SerialCallChecker checker;
  const auto enter = [&checker] {
    STEGHIDE_SERIAL_CALL_GUARD(checker, "TestComponent");
  };
  {
    // A compound operation re-entering its own public surface.
    STEGHIDE_SERIAL_CALL_GUARD(checker, "TestComponent");
    enter();
  }
  // Ownership handed across a thread start and join, as from a set-up
  // thread to a dispatcher's I/O thread and back after Stop().
  std::thread first([&] {
    STEGHIDE_SERIAL_CALL_GUARD(checker, "TestComponent");
    enter();
  });
  first.join();
  std::thread second(enter);
  second.join();
  enter();
}

TEST(SerialCallCheckerDeathTest, SecondThreadEnteringAHeldGuardAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "SerialCallChecker compiles away under NDEBUG";
#endif
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        SerialCallChecker checker;
        std::promise<void> entered;
        std::promise<void> release;
        std::thread holder([&] {
          STEGHIDE_SERIAL_CALL_GUARD(checker, "TestComponent");
          entered.set_value();
          release.get_future().wait();
        });
        entered.get_future().wait();
        {
          STEGHIDE_SERIAL_CALL_GUARD(checker, "TestComponent");
        }
        release.set_value();
        holder.join();
      },
      "concurrent TestComponent calls break its one-owner-thread rule");
}

// TraceBlockDevice and Snapshot have dedicated suites now:
// trace_device_test.cc and snapshot_test.cc.

}  // namespace
}  // namespace steghide::storage
