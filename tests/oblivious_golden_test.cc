// Golden trace pin for the §5 store: a fixed mixed workload (inserts,
// grouped reads and writes, removes, pumped re-order steps and dummy
// reads) over a traced MemBlockDevice, under the blocking and both
// deamortized schedules at seeds 1-3. Two SHA-256 digests are pinned per
// run: one of the device trace (op kind and block id, in issue order) and
// one of the final device image. A change that claims to leave every
// device call, block id and DRBG draw alone must leave both unchanged.
//
// The flush set is buffer_'s iteration order, and std::unordered_map's
// bucket layout differs between standard libraries, so the digests are
// pinned for libstdc++ only.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "oblivious/oblivious_store.h"
#include "storage/mem_block_device.h"
#include "storage/trace_device.h"
#include "util/random.h"

namespace steghide::oblivious {
namespace {

constexpr uint64_t kBuffer = 16;
constexpr uint64_t kCapacity = 1024;
constexpr int kOps = 1500;
// Records the workload keeps at most: enough for the two bottom levels'
// re-orders to spill runs and merge them externally.
constexpr size_t kMaxRecords = 700;

enum class Schedule { kBlocking, kDeamortized, kStrict };

struct GoldenCase {
  Schedule schedule;
  uint64_t seed;
  const char* trace_sha256;
  const char* image_sha256;
};

std::string ScheduleName(Schedule s) {
  switch (s) {
    case Schedule::kBlocking:
      return "blocking";
    case Schedule::kDeamortized:
      return "deamortized";
    case Schedule::kStrict:
      return "strict";
  }
  return "?";
}

ObliviousStoreOptions GoldenOptions(Schedule schedule, uint64_t seed) {
  const uint64_t hierarchy = 2 * kCapacity - 2 * kBuffer;
  ObliviousStoreOptions opts;
  opts.buffer_blocks = kBuffer;
  opts.capacity_blocks = kCapacity;
  opts.partition_base = 0;
  opts.scratch_base = hierarchy;
  opts.shadow_base = hierarchy + kCapacity;
  opts.drbg_seed = seed;
  opts.deamortize_reorders = schedule != Schedule::kBlocking;
  opts.strict_reorder_schedule = schedule == Schedule::kStrict;
  opts.reorder_step_blocks = 16;
  return opts;
}

void FillPayload(RecordId id, uint8_t version, uint8_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(id * 31 + version * 7 + i);
  }
}

class TraceDigest {
 public:
  /// Folds the device's trace so far into the digest and clears it.
  void Absorb(storage::TraceBlockDevice& device) {
    for (const storage::TraceEvent& e : device.trace()) {
      uint8_t rec[9];
      rec[0] = e.kind == storage::TraceEvent::Kind::kRead ? 'r' : 'w';
      StoreBigEndian64(rec + 1, e.block_id);
      sha_.Update(rec, sizeof(rec));
      ++events_;
    }
    device.ClearTrace();
  }
  std::string Finish() {
    const crypto::Sha256::Digest d = sha_.Finish();
    return ToHex(d.data(), d.size());
  }
  uint64_t events() const { return events_; }

 private:
  crypto::Sha256 sha_;
  uint64_t events_ = 0;
};

class GoldenTraceTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTraceTest, MixedWorkloadKeepsTraceAndImage) {
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "digests are pinned for libstdc++'s unordered_map layout";
#endif
  const GoldenCase golden = GetParam();
  const ObliviousStoreOptions opts =
      GoldenOptions(golden.schedule, golden.seed);
  const uint64_t hierarchy = 2 * kCapacity - 2 * kBuffer;
  storage::MemBlockDevice mem(2 * hierarchy + kCapacity + 4, 4096);
  storage::TraceBlockDevice traced(&mem);
  auto created = ObliviousStore::Create(&traced, opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ObliviousStore& store = **created;
  ASSERT_EQ(store.deamortized(), golden.schedule != Schedule::kBlocking);
  const size_t ps = store.payload_size();

  Rng rng(golden.seed);
  TraceDigest digest;
  std::map<RecordId, uint8_t> mirror;  // id -> payload version
  std::vector<RecordId> live;          // mirror's ids, for sampling
  RecordId next_id = 1;
  size_t max_records = 0;
  std::vector<RecordId> ids;
  Bytes payloads;
  Bytes out;

  const auto pick_live = [&] { return live[rng.Uniform(live.size())]; };
  for (int op = 0; op < kOps; ++op) {
    const uint64_t r = rng.Uniform(100);
    ids.clear();
    if (live.size() < 2 * kBuffer || (r < 25 && live.size() < kMaxRecords)) {
      // Miss-fill of fresh records.
      const uint64_t k = 1 + rng.Uniform(kBuffer);
      payloads.resize(k * ps);
      for (uint64_t i = 0; i < k; ++i) {
        const RecordId id = next_id++;
        const auto version = static_cast<uint8_t>(rng.Uniform(256));
        ids.push_back(id);
        FillPayload(id, version, payloads.data() + i * ps, ps);
        mirror[id] = version;
        live.push_back(id);
      }
      ASSERT_TRUE(store.MultiInsert(ids, payloads.data()).ok()) << "op " << op;
    } else if (r < 65) {
      // Grouped reads, duplicates allowed, longer than B at times.
      const uint64_t k = 1 + rng.Uniform(2 * kBuffer);
      for (uint64_t i = 0; i < k; ++i) ids.push_back(pick_live());
      out.assign(k * ps, 0);
      ASSERT_TRUE(store.MultiRead(ids, out.data()).ok()) << "op " << op;
      Bytes want(ps);
      for (uint64_t i = 0; i < k; ++i) {
        FillPayload(ids[i], mirror[ids[i]], want.data(), ps);
        ASSERT_TRUE(std::equal(want.begin(), want.end(),
                               out.begin() + static_cast<ptrdiff_t>(i * ps)))
            << "op " << op << " id " << ids[i];
      }
    } else if (r < 80) {
      // Hidden updates, now and then of a fresh id; later duplicates win.
      const uint64_t k = 1 + rng.Uniform(kBuffer);
      payloads.resize(k * ps);
      for (uint64_t i = 0; i < k; ++i) {
        const bool fresh = rng.Uniform(8) == 0 && live.size() < kMaxRecords;
        const RecordId id = fresh ? next_id++ : pick_live();
        const auto version = static_cast<uint8_t>(rng.Uniform(256));
        ids.push_back(id);
        FillPayload(id, version, payloads.data() + i * ps, ps);
        if (mirror.find(id) == mirror.end()) live.push_back(id);
        mirror[id] = version;
      }
      ASSERT_TRUE(store.MultiWrite(ids, payloads.data()).ok()) << "op " << op;
    } else if (r < 88) {
      const size_t at = rng.Uniform(live.size());
      const RecordId id = live[at];
      live[at] = live.back();
      live.pop_back();
      mirror.erase(id);
      ASSERT_TRUE(store.Remove(id).ok()) << "op " << op;
    } else if (r < 95) {
      ASSERT_TRUE(store.StepReorder(1 + rng.Uniform(128)).ok()) << "op " << op;
    } else {
      ASSERT_TRUE(store.DummyRead().ok()) << "op " << op;
    }
    max_records = std::max(max_records, live.size());
    if (op % 64 == 0) digest.Absorb(traced);
  }
  // Drain a chain still in flight, then read every record back.
  bool more = true;
  while (more) ASSERT_TRUE(store.StepReorder(1u << 20, &more).ok());
  ids.assign(live.begin(), live.end());
  out.assign(ids.size() * ps, 0);
  ASSERT_TRUE(store.MultiRead(ids, out.data()).ok());
  Bytes want(ps);
  for (size_t i = 0; i < ids.size(); ++i) {
    FillPayload(ids[i], mirror[ids[i]], want.data(), ps);
    ASSERT_TRUE(std::equal(want.begin(), want.end(),
                           out.begin() + static_cast<ptrdiff_t>(i * ps)))
        << "final read, id " << ids[i];
  }
  digest.Absorb(traced);
  EXPECT_GT(max_records, 2 * 256u) << "the bottom re-orders must spill runs";
  EXPECT_EQ(store.record_count(), live.size());

  Bytes image(mem.num_blocks() * mem.block_size());
  std::vector<uint64_t> all(mem.num_blocks());
  for (uint64_t b = 0; b < all.size(); ++b) all[b] = b;
  ASSERT_TRUE(mem.ReadBlocks(all, image.data()).ok());
  const crypto::Sha256::Digest image_digest =
      crypto::Sha256::Hash(image.data(), image.size());

  const std::string trace_hex = digest.Finish();
  const std::string image_hex = ToHex(image_digest.data(), image_digest.size());
  EXPECT_EQ(trace_hex, golden.trace_sha256)
      << ScheduleName(golden.schedule) << " seed " << golden.seed << ", "
      << digest.events() << " device ops";
  EXPECT_EQ(image_hex, golden.image_sha256)
      << ScheduleName(golden.schedule) << " seed " << golden.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, GoldenTraceTest,
    ::testing::Values(
        GoldenCase{Schedule::kBlocking, 1,
                   "f4c46f193241aa94599d2c9c9984bf9efc422358bf901a9f16513868f0b422a6",
                   "e3dadbea7e6d5e9e0653a57e33a197a91f7498c962110b13d9a91ebff6820e53"},
        GoldenCase{Schedule::kBlocking, 2,
                   "dc763e7d3ce10054d1894a93f5b2cb99cb22d98e102f2e9cddbd6d0f76097859",
                   "16c457fc0ee1c1442512bfac38cc2d5a3ce255e5b58a124f27308d973e3aa0aa"},
        GoldenCase{Schedule::kBlocking, 3,
                   "52feafa32901b3751bce82b401a2b742bfeb749c430294c5d875237bf28653c1",
                   "0e1a48ecde24f42085bc220d7811665a5f035cf809a50b3fbcb7177c4b7ad365"},
        GoldenCase{Schedule::kDeamortized, 1,
                   "ccf9b2103eef69a5156198afefb52657543723c508e1cefb5a76240624b4b8de",
                   "883df545bdfc21ab67d100ab65b02b9c04160770eb81b4e29164af1e3e9dc92a"},
        GoldenCase{Schedule::kDeamortized, 2,
                   "398f544a6188e508a2f2637b2e034fa19db358e288532151155e5940a915edc5",
                   "fd6ca1ace4b678ded80a0b62fa76a24232d933febd7408530e6cfb90216109bb"},
        GoldenCase{Schedule::kDeamortized, 3,
                   "f80534ed90a5b4e03a09b319331ee319ca29680bfedd980031ed9193859b07e7",
                   "41cde3cbbd477ab2847dd62dd33b87ece9097bfd5f18fcd50301928bdc9fdc45"},
        GoldenCase{Schedule::kStrict, 1,
                   "369539bfdeeeba5b638e5734895b1b2eb38f8dadd9d3936c4b39549dc68f5e1a",
                   "e2c61311dee5732b7529f00b18c6c322f37c443a0f72063da3a807a8886dbe03"},
        GoldenCase{Schedule::kStrict, 2,
                   "1292c6f66cb36f5377481867840894ed6144f0d5cd4f521a876e7aa6dc2386c7",
                   "ed5a2eae01a7569cdccffcfc0d7b2008c16ba3c0aac22beafe07dbc99a236957"},
        GoldenCase{Schedule::kStrict, 3,
                   "05e8a6879e0d06d117f0e2fa4dc1fe692f9d0c0ad407036509a797df27531f9e",
                   "7073722a708dd474aae1cfca2b7e0cd8dadd8fea3e30776f02cfac9ffcb99f59"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return ScheduleName(info.param.schedule) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace steghide::oblivious
