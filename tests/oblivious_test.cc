#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "oblivious/hash_index.h"
#include "oblivious/merge_sort.h"
#include "oblivious/oblivious_store.h"
#include "storage/fault_device.h"
#include "storage/mem_block_device.h"
#include "storage/sim_device.h"
#include "testing/rng.h"
#include "util/random.h"

namespace steghide::oblivious {
namespace {

// ---- HashIndex ---------------------------------------------------------

TEST(HashIndexTest, PutGetErase) {
  HashIndex idx;
  idx.Rebuild(1);
  idx.Put(10, 3);
  idx.Put(11, 4);
  EXPECT_EQ(idx.Get(10), std::optional<uint64_t>(3));
  EXPECT_EQ(idx.Get(11), std::optional<uint64_t>(4));
  EXPECT_EQ(idx.Get(12), std::nullopt);
  idx.Put(10, 9);
  EXPECT_EQ(idx.Get(10), std::optional<uint64_t>(9));
  idx.Erase(10);
  EXPECT_EQ(idx.Get(10), std::nullopt);
  EXPECT_EQ(idx.size(), 1u);
}

TEST(HashIndexTest, RebuildClearsAndRekeys) {
  HashIndex idx;
  idx.Rebuild(1);
  idx.Put(5, 5);
  idx.Rebuild(2);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.nonce(), 2u);
  EXPECT_EQ(idx.Get(5), std::nullopt);
}

TEST(HashIndexTest, RebuildSizesTheTable) {
  HashIndex idx;
  idx.Rebuild(1, 100);
  const size_t capacity = idx.capacity();
  EXPECT_GE(capacity, 200u);
  for (RecordId id = 0; id < 100; ++id) idx.Put(id, id);
  EXPECT_EQ(idx.capacity(), capacity) << "Rebuild(_, 100) must cover 100 puts";
  idx.Rebuild(9, 100);
  EXPECT_EQ(idx.capacity(), capacity);
  EXPECT_EQ(idx.size(), 0u);
  for (RecordId id = 0; id < 100; ++id) EXPECT_EQ(idx.Get(id), std::nullopt);
  // A smaller rebuild shrinks the table it clears; puts past its size
  // grow it again and lose nothing.
  idx.Rebuild(10, 3);
  EXPECT_EQ(idx.capacity(), 16u);
  for (RecordId id = 0; id < 100; ++id) idx.Put(id, 2 * id);
  EXPECT_EQ(idx.size(), 100u);
  for (RecordId id = 0; id < 100; ++id) {
    EXPECT_EQ(idx.Get(id), std::optional<uint64_t>(2 * id));
  }
}

// Ids whose probes start at `home`, drawn from a running counter.
std::vector<RecordId> IdsHomedAt(const HashIndex& idx, size_t home, size_t n,
                                 RecordId& next) {
  std::vector<RecordId> ids;
  while (ids.size() < n) {
    const RecordId id = next++;
    if (idx.HomeOf(id) == home) ids.push_back(id);
  }
  return ids;
}

// Differential check against std::unordered_map: seeded random Put, Get,
// Erase and Rebuild sequences, each rebuild sizing the table anew. Most
// ids are homed on the last two and the first two entries of the current
// table, so probe runs wrap round its end and erases land inside such
// clusters, where a wrong backward shift strands the entries behind the
// hole.
TEST(HashIndexTest, MatchesUnorderedMapProperty) {
  Rng rng = testing::MakeTestRng();
  for (int round = 0; round < 20; ++round) {
    HashIndex idx;
    std::unordered_map<RecordId, uint64_t> ref;
    RecordId next_id = 1000000;
    idx.Rebuild(rng.Next(), 1 + rng.Uniform(48));
    std::vector<RecordId> pool;
    size_t pool_capacity = 0;
    const auto refill_pool = [&] {
      // Wrap-around clusters for the current table and nonce, plus a few
      // plain ids. Ids of an earlier pool stay in `ref` and are still
      // checked.
      const size_t cap = idx.capacity();
      pool.clear();
      for (const size_t home : {cap - 2, cap - 1, size_t{0}, size_t{1}}) {
        for (const RecordId id : IdsHomedAt(idx, home, 3, next_id)) {
          pool.push_back(id);
        }
      }
      for (int i = 0; i < 8; ++i) pool.push_back(rng.Uniform(64));
      pool_capacity = cap;
    };
    refill_pool();
    for (int op = 0; op < 400; ++op) {
      const uint64_t action = rng.Uniform(100);
      const RecordId id = pool[rng.Uniform(pool.size())];
      if (action < 45) {
        const uint64_t slot = rng.Uniform(1u << 20);
        ASSERT_EQ(idx.Put(id, slot), ref.count(id) == 0) << "op " << op;
        ref[id] = slot;
      } else if (action < 80) {
        idx.Erase(id);
        ref.erase(id);
      } else if (action < 97) {
        const auto it = ref.find(id);
        ASSERT_EQ(idx.Get(id), it == ref.end()
                                   ? std::nullopt
                                   : std::optional<uint64_t>(it->second));
      } else {
        const uint64_t nonce = rng.Next();
        idx.Rebuild(nonce, rng.Uniform(128));
        ref.clear();
        EXPECT_EQ(idx.nonce(), nonce);
        refill_pool();  // a new nonce re-homes every id
      }
      // So does a resized table: build clusters for the new one.
      if (idx.capacity() != pool_capacity) refill_pool();
      ASSERT_EQ(idx.size(), ref.size()) << "round " << round << " op " << op;
      for (const auto& [ref_id, slot] : ref) {
        ASSERT_EQ(idx.Get(ref_id), std::optional<uint64_t>(slot))
            << "round " << round << " op " << op << " id " << ref_id;
      }
      for (const RecordId pool_id : pool) {
        if (ref.count(pool_id) == 0) {
          ASSERT_EQ(idx.Get(pool_id), std::nullopt)
              << "round " << round << " op " << op << " id " << pool_id;
        }
      }
    }
  }
}

TEST(HashIndexTest, EraseInsideWrappedClusterKeepsTheRestReachable) {
  HashIndex idx;
  idx.Rebuild(3, 8);  // 16 entries; the 8 puts below fit without growth
  const size_t cap = idx.capacity();
  ASSERT_EQ(cap, 16u);
  RecordId next_id = 0;
  // Four ids homed on the last entry fill positions 15, 0, 1, 2; two
  // homed on 0 and two on 1 are pushed behind them to 3..6.
  std::vector<RecordId> cluster = IdsHomedAt(idx, cap - 1, 4, next_id);
  for (const RecordId id : IdsHomedAt(idx, 0, 2, next_id)) cluster.push_back(id);
  for (const RecordId id : IdsHomedAt(idx, 1, 2, next_id)) cluster.push_back(id);
  for (size_t i = 0; i < cluster.size(); ++i) idx.Put(cluster[i], i);
  ASSERT_EQ(idx.capacity(), cap);
  // Erase from the middle of the run first, then across the wrap.
  for (const size_t victim : {size_t{5}, size_t{1}, size_t{0}, size_t{6}}) {
    idx.Erase(cluster[victim]);
    cluster[victim] = kNullRecord;
    for (size_t i = 0; i < cluster.size(); ++i) {
      if (cluster[i] == kNullRecord) continue;
      EXPECT_EQ(idx.Get(cluster[i]), std::optional<uint64_t>(i))
          << "after erasing entry " << victim << ", id at " << i;
    }
  }
  EXPECT_EQ(idx.size(), 4u);
}

// ---- ExternalMergeSorter -------------------------------------------------

class MergeSorterTest : public ::testing::Test {
 protected:
  MergeSorterTest()
      : dev_(256, 4096), codec_(4096), drbg_(uint64_t{31}) {
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

TEST_F(MergeSorterTest, InMemoryFastPath) {
  // 4 items, run size 8: everything sorts in memory.
  ExternalMergeSorter sorter(&dev_, &codec_, &cipher_, &drbg_, 128, 8);
  std::map<uint64_t, Bytes> payloads;
  for (uint64_t i = 0; i < 4; ++i) {
    Bytes p(codec_.payload_size(), static_cast<uint8_t>(i + 1));
    payloads[i] = p;
    ASSERT_TRUE(sorter.AddInMemory(p, /*tag=*/100 - i, /*label=*/i).ok());
  }
  auto order = MergeAll(sorter, /*dst_base=*/0);
  ASSERT_TRUE(order.ok());
  // Tags were descending, so labels come back reversed.
  EXPECT_EQ(*order, (std::vector<uint64_t>{3, 2, 1, 0}));
  for (uint64_t slot = 0; slot < 4; ++slot) {
    EXPECT_EQ(GetBlock(slot), payloads[(*order)[slot]]);
  }
  EXPECT_EQ(sorter.stats().reads, 0u);  // no scratch traffic
}

TEST_F(MergeSorterTest, MultiRunExternalSort) {
  constexpr uint64_t kItems = 40;
  constexpr uint64_t kRun = 8;
  // Scratch at 64; destination at 128.
  std::map<uint64_t, Bytes> payloads;
  Rng rng = testing::MakeTestRng();
  for (uint64_t i = 0; i < kItems; ++i) {
    Bytes p(codec_.payload_size());
    rng.Fill(p.data(), p.size());
    payloads[i] = p;
  }
  ExternalMergeSorter sorter(&dev_, &codec_, &cipher_, &drbg_, 64, kRun);
  std::vector<uint64_t> tags(kItems);
  for (uint64_t i = 0; i < kItems; ++i) {
    tags[i] = rng.Next();
    ASSERT_TRUE(sorter.AddInMemory(payloads[i], tags[i], i).ok());
  }
  auto order = MergeAll(sorter, 128);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  ASSERT_EQ(order->size(), kItems);

  // Labels must come out in ascending tag order...
  for (size_t i = 1; i < order->size(); ++i) {
    EXPECT_LE(tags[(*order)[i - 1]], tags[(*order)[i]]);
  }
  // ...and each destination slot must hold the right payload.
  std::set<uint64_t> seen;
  for (uint64_t slot = 0; slot < kItems; ++slot) {
    const uint64_t label = (*order)[slot];
    seen.insert(label);
    EXPECT_EQ(GetBlock(128 + slot), payloads[label]) << "slot " << slot;
  }
  EXPECT_EQ(seen.size(), kItems);  // a permutation, nothing lost
}

// The pending run's failure rules: a failed spill keeps its keys and
// slots, later adds grow the run past run_blocks without overwriting a
// slot (AddInMemory, and AddSealed of one image while run_room() is 0),
// and a sealed add never reaches past the next spill.
TEST_F(MergeSorterTest, AddsAfterAFailedSpillGrowTheRun) {
  constexpr uint64_t kItems = 20;
  constexpr uint64_t kRun = 8;
  const size_t bs = codec_.block_size();
  // The first two spill writes fail, once each.
  storage::FaultSpec fail;
  fail.kind = storage::FaultSpec::Kind::kTransientError;
  fail.ops = storage::FaultSpec::OpFilter::kWrite;
  fail.max_fires = 2;
  storage::FaultInjectionBlockDevice faulty(&dev_, storage::FaultPlan{{fail}});
  ExternalMergeSorter sorter(&faulty, &codec_, &cipher_, &drbg_, 64, kRun);

  Rng rng = testing::MakeTestRng();
  std::vector<Bytes> payloads(kItems);
  std::vector<uint64_t> tags(kItems), labels(kItems);
  Bytes sealed(kItems * bs);
  for (uint64_t i = 0; i < kItems; ++i) {
    payloads[i].resize(codec_.payload_size());
    rng.Fill(payloads[i].data(), payloads[i].size());
    tags[i] = rng.Next();
    labels[i] = i;
    ASSERT_TRUE(
        codec_.Seal(cipher_, drbg_, payloads[i].data(), &sealed[i * bs]).ok());
  }
  const auto add_memory = [&](uint64_t i) {
    return sorter.AddInMemory(payloads[i], tags[i], labels[i]);
  };
  const auto add_sealed = [&](uint64_t first, uint64_t n) {
    return sorter.AddSealed(&sealed[first * bs],
                            std::span(tags).subspan(first, n),
                            std::span(labels).subspan(first, n));
  };

  for (uint64_t i = 0; i + 1 < kRun; ++i) ASSERT_TRUE(add_memory(i).ok());
  EXPECT_EQ(add_memory(kRun - 1).code(), StatusCode::kIoError);
  EXPECT_EQ(sorter.run_room(), 0u);
  EXPECT_EQ(sorter.item_count(), kRun);
  // Two images would reach past the re-driven spill; one is allowed.
  EXPECT_EQ(add_sealed(kRun, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sorter.item_count(), kRun);
  EXPECT_EQ(add_memory(kRun).code(), StatusCode::kIoError);
  EXPECT_EQ(sorter.item_count(), kRun + 1);
  // Slot run_blocks + 1: this spill of ten items succeeds.
  ASSERT_TRUE(add_sealed(kRun + 1, 1).ok());
  EXPECT_EQ(sorter.item_count(), kRun + 2);
  EXPECT_EQ(sorter.run_room(), kRun);
  EXPECT_EQ(faulty.stats().injected_errors, 2u);

  // A fresh run: a sealed add takes at most run_room() images.
  EXPECT_EQ(add_sealed(10, kRun + 1).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(add_sealed(10, 5).ok());
  EXPECT_EQ(sorter.run_room(), 3u);
  EXPECT_EQ(add_sealed(15, 4).code(), StatusCode::kInvalidArgument);
  for (uint64_t i = 15; i < 18; ++i) ASSERT_TRUE(add_memory(i).ok());
  ASSERT_TRUE(add_sealed(18, 2).ok());
  ASSERT_EQ(sorter.item_count(), kItems);

  auto order = MergeAll(sorter, 128);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  ASSERT_EQ(order->size(), kItems);
  std::set<uint64_t> seen;
  for (uint64_t slot = 0; slot < kItems; ++slot) {
    const uint64_t label = (*order)[slot];
    seen.insert(label);
    if (slot > 0) {
      EXPECT_LE(tags[(*order)[slot - 1]], tags[label]);
    }
    EXPECT_EQ(GetBlock(128 + slot), payloads[label]) << "slot " << slot;
  }
  EXPECT_EQ(seen.size(), kItems);
}

// ---- ObliviousStore -------------------------------------------------------

ObliviousStoreOptions SmallOptions() {
  ObliviousStoreOptions opts;
  opts.buffer_blocks = 4;
  opts.capacity_blocks = 32;  // k = 3 levels: 8, 16, 32
  opts.partition_base = 0;
  opts.scratch_base = 60;  // hierarchy needs 2*32-2*4 = 56 blocks
  opts.drbg_seed = 77;
  return opts;
}

class ObliviousStoreTest : public ::testing::Test {
 protected:
  ObliviousStoreTest() : mem_(128, 4096), sim_(&mem_, storage::DiskModelParams{}) {
    auto store = ObliviousStore::Create(&sim_, SmallOptions());
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(store).value();
    store_->set_clock_fn([this] { return sim_.clock_ms(); });
  }

  Bytes Payload(uint8_t seed) {
    Bytes p(store_->payload_size());
    for (size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<uint8_t>(seed + i);
    }
    return p;
  }

  storage::MemBlockDevice mem_;
  storage::SimBlockDevice sim_;
  std::unique_ptr<ObliviousStore> store_;
};

TEST_F(ObliviousStoreTest, GeometryValidation) {
  storage::MemBlockDevice small(16, 4096);
  ObliviousStoreOptions opts = SmallOptions();
  EXPECT_FALSE(ObliviousStore::Create(&small, opts).ok());  // doesn't fit

  opts = SmallOptions();
  opts.capacity_blocks = 24;  // not B * 2^k
  EXPECT_FALSE(ObliviousStore::Create(&mem_, opts).ok());

  opts = SmallOptions();
  opts.scratch_base = 10;  // overlaps hierarchy
  EXPECT_FALSE(ObliviousStore::Create(&mem_, opts).ok());
}

TEST_F(ObliviousStoreTest, HeightMatchesLog2) {
  EXPECT_EQ(store_->height(), 3);
  EXPECT_EQ(store_->hierarchy_blocks(), 56u);
}

TEST_F(ObliviousStoreTest, InsertReadRoundTrip) {
  ASSERT_TRUE(store_->Insert(1, Payload(10).data()).ok());
  EXPECT_TRUE(store_->Contains(1));
  Bytes out(store_->payload_size());
  ASSERT_TRUE(store_->Read(1, out.data()).ok());
  EXPECT_EQ(out, Payload(10));
}

TEST_F(ObliviousStoreTest, MissingRecordIsNotFoundWithoutIo) {
  Bytes out(store_->payload_size());
  const auto io_before = sim_.stats().total_ops();
  EXPECT_EQ(store_->Read(99, out.data()).code(), StatusCode::kNotFound);
  EXPECT_EQ(sim_.stats().total_ops(), io_before);
}

TEST_F(ObliviousStoreTest, SurvivesCascadedDumpsProperty) {
  // Fill to capacity, then read everything back repeatedly: dumps cascade
  // through all levels and every record must stay intact.
  for (uint64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(static_cast<uint8_t>(id)).data()).ok());
  }
  Bytes out(store_->payload_size());
  Rng rng = testing::MakeTestRng();
  for (int round = 0; round < 200; ++round) {
    const uint64_t id = rng.Uniform(32);
    ASSERT_TRUE(store_->Read(id, out.data()).ok()) << "round " << round;
    ASSERT_EQ(out, Payload(static_cast<uint8_t>(id))) << "round " << round;
  }
  EXPECT_GT(store_->stats().reorders, 0u);
}

TEST_F(ObliviousStoreTest, WriteSupersedesOldVersion) {
  ASSERT_TRUE(store_->Insert(5, Payload(1).data()).ok());
  // Push it down into the levels.
  for (uint64_t id = 100; id < 108; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(2).data()).ok());
  }
  ASSERT_TRUE(store_->Write(5, Payload(42).data()).ok());
  Bytes out(store_->payload_size());
  ASSERT_TRUE(store_->Read(5, out.data()).ok());
  EXPECT_EQ(out, Payload(42));
  // And after more churn forces merges, the new version still wins.
  for (uint64_t id = 200; id < 216; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(3).data()).ok());
  }
  ASSERT_TRUE(store_->Read(5, out.data()).ok());
  EXPECT_EQ(out, Payload(42));
}

TEST_F(ObliviousStoreTest, CapacityEnforced) {
  for (uint64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(0).data()).ok());
  }
  EXPECT_EQ(store_->Insert(500, Payload(0).data()).code(),
            StatusCode::kNoSpace);
  // Updating an existing record is still fine.
  EXPECT_TRUE(store_->Insert(3, Payload(9).data()).ok());
}

TEST_F(ObliviousStoreTest, EveryMissReadsOneSlotPerNonEmptyLevel) {
  for (uint64_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(0).data()).ok());
  }
  // Drain the buffer's worth of ids so reads go to the levels.
  Bytes out(store_->payload_size());
  for (int i = 0; i < 50; ++i) {
    store_->ResetStats();
    // Occupancy must be sampled before the read: the read may trigger a
    // buffer flush that reshapes the hierarchy.
    uint64_t non_empty = 0;
    for (uint64_t occ : store_->LevelOccupancy()) {
      if (occ > 0) ++non_empty;
    }
    const uint64_t id = static_cast<uint64_t>(i) % 16;
    ASSERT_TRUE(store_->Read(id, out.data()).ok());
    const auto& st = store_->stats();
    if (st.buffer_hits == 1) continue;  // buffer hit: no level touches
    // One probe per non-empty level, no more, no less — the observable
    // invariant that makes reads pattern-free. (Occupancy counts live
    // records; a level holding only stale slots still gets probed, so
    // allow the stale-only case by checking >=.)
    EXPECT_GE(st.level_probe_reads, non_empty) << "read " << i;
    EXPECT_LE(st.level_probe_reads,
              static_cast<uint64_t>(store_->height()));
  }
}

TEST_F(ObliviousStoreTest, DummyReadsAreServed) {
  EXPECT_TRUE(store_->DummyRead().ok());  // empty store: no-op
  for (uint64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(1).data()).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store_->DummyRead().ok());
  }
  EXPECT_EQ(store_->stats().dummy_reads, 20u);
  EXPECT_EQ(store_->stats().user_reads, 0u);
}

// A dummy read counts once it has run. Here it cannot: a flush drain
// failed on a dead device and left its blocking chain behind, which the
// dummy read must finish first and fails to. Neither counter moves (the
// old code counted the dummy up front and wrapped user_reads below 0).
TEST(ObliviousStoreFaultTest, DummyReadCountsOnlyReadsThatRan) {
  storage::MemBlockDevice mem(64, 4096);
  storage::FaultInjectionBlockDevice faulty(&mem);
  ObliviousStoreOptions opts;
  opts.buffer_blocks = 4;
  opts.capacity_blocks = 16;
  opts.partition_base = 0;
  opts.scratch_base = 24;  // after the 2N - 2B = 24-block hierarchy
  auto store = ObliviousStore::Create(&faulty, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_FALSE((*store)->deamortized());
  const Bytes payload((*store)->payload_size(), 0x5a);
  for (RecordId id = 0; id < 3; ++id) {
    ASSERT_TRUE((*store)->Insert(id, payload.data()).ok());
  }
  faulty.Kill();
  // The fourth insert fills the buffer; its flush drain fails.
  EXPECT_EQ((*store)->Insert(3, payload.data()).code(), StatusCode::kIoError);
  EXPECT_TRUE((*store)->reorder_pending());

  EXPECT_EQ((*store)->DummyRead().code(), StatusCode::kIoError);
  EXPECT_EQ((*store)->stats().dummy_reads, 0u);
  EXPECT_EQ((*store)->stats().user_reads, 0u);

  faulty.Revive();
  ASSERT_TRUE((*store)->DummyRead().ok());
  EXPECT_FALSE((*store)->reorder_pending());
  EXPECT_EQ((*store)->stats().dummy_reads, 1u);
  EXPECT_EQ((*store)->stats().user_reads, 0u);
  Bytes out((*store)->payload_size());
  for (RecordId id = 0; id < 4; ++id) {
    ASSERT_TRUE((*store)->Read(id, out.data()).ok());
    EXPECT_EQ(out, payload);
  }
}

TEST_F(ObliviousStoreTest, StatsSplitRetrieveAndSortTime) {
  for (uint64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(0).data()).ok());
  }
  Bytes out(store_->payload_size());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store_->Read(i % 32, out.data()).ok());
  }
  const auto& st = store_->stats();
  EXPECT_GT(st.retrieve_ms, 0.0);
  EXPECT_GT(st.sort_ms, 0.0);
  // Total accounted virtual time should not exceed the device clock.
  EXPECT_LE(st.retrieve_ms + st.sort_ms, sim_.clock_ms() + 1e-6);
}

TEST_F(ObliviousStoreTest, OverheadFactorIsOrderTenK) {
  for (uint64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(0).data()).ok());
  }
  store_->ResetStats();
  Bytes out(store_->payload_size());
  Rng rng = testing::MakeTestRng();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(store_->Read(rng.Uniform(32), out.data()).ok());
  }
  const double factor = store_->stats().OverheadFactor();
  // §5.2 predicts ~10k I/Os per request (k = 3 here → ~30); accept a broad
  // band since buffer hits dilute it.
  EXPECT_GT(factor, 3.0 * store_->height());
  EXPECT_LT(factor, 20.0 * store_->height());
}

TEST_F(ObliviousStoreTest, ProbePositionsLookUniformProperty) {
  // Collect decoy/real probe slots indirectly: after many reads, the
  // device-level read positions within each level should cover the level
  // broadly (no hot slot). We approximate via reorder churn + probe count.
  for (uint64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(0).data()).ok());
  }
  Bytes out(store_->payload_size());
  Rng rng = testing::MakeTestRng();
  // Zipf-skewed REQUESTS: a heavily skewed workload...
  for (int i = 0; i < 300; ++i) {
    const uint64_t id = rng.Bernoulli(0.8) ? 3 : rng.Uniform(32);
    ASSERT_TRUE(store_->Read(id, out.data()).ok());
  }
  // ...must still produce one probe per non-empty level per miss — the
  // hot record does not create hot disk locations because it re-enters
  // the buffer and levels get re-shuffled.
  EXPECT_GT(store_->stats().level_probe_reads, 0u);
  EXPECT_GT(store_->stats().reorders, 5u);
}

TEST_F(ObliviousStoreTest, MultiReadRoundTrip) {
  for (uint64_t id = 0; id < 24; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(static_cast<uint8_t>(id)).data()).ok());
  }
  const std::vector<RecordId> ids = {20, 3, 11, 3, 17};
  Bytes outs(ids.size() * store_->payload_size());
  ASSERT_TRUE(store_->MultiRead(ids, outs.data()).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(Bytes(outs.begin() + i * store_->payload_size(),
                    outs.begin() + (i + 1) * store_->payload_size()),
              Payload(static_cast<uint8_t>(ids[i])))
        << "request " << i;
  }
}

TEST_F(ObliviousStoreTest, MultiWriteMixesInsertsAndUpdates) {
  ASSERT_TRUE(store_->Insert(1, Payload(1).data()).ok());
  // Push id 1 into the levels so its update takes the scan path.
  for (uint64_t id = 100; id < 108; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(0).data()).ok());
  }
  // Group: update a level-resident record, insert two fresh ones, and
  // end with a duplicate that must win.
  const std::vector<RecordId> ids = {1, 200, 201, 200};
  Bytes payloads(ids.size() * store_->payload_size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const Bytes p = Payload(static_cast<uint8_t>(40 + i));
    std::copy(p.begin(), p.end(),
              payloads.data() + i * store_->payload_size());
  }
  ASSERT_TRUE(store_->MultiWrite(ids, payloads.data()).ok());

  Bytes out(store_->payload_size());
  ASSERT_TRUE(store_->Read(1, out.data()).ok());
  EXPECT_EQ(out, Payload(40));
  ASSERT_TRUE(store_->Read(201, out.data()).ok());
  EXPECT_EQ(out, Payload(42));
  ASSERT_TRUE(store_->Read(200, out.data()).ok());
  EXPECT_EQ(out, Payload(43));  // the later duplicate superseded index 1

  // ...and the updates survive merge churn.
  for (uint64_t id = 300; id < 316; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(9).data()).ok());
  }
  ASSERT_TRUE(store_->Read(1, out.data()).ok());
  EXPECT_EQ(out, Payload(40));
}

TEST_F(ObliviousStoreTest, MultiInsertDefersFlushToGroupEnd) {
  std::vector<RecordId> ids(6);
  Bytes payloads(ids.size() * store_->payload_size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = 50 + i;
    const Bytes p = Payload(static_cast<uint8_t>(i));
    std::copy(p.begin(), p.end(), payloads.data() + i * store_->payload_size());
  }
  ASSERT_TRUE(store_->MultiInsert(ids, payloads.data()).ok());
  // 6 records arrive in chunks of B = 4: one deferred flush after the
  // first chunk, the remainder stays staged in the buffer.
  EXPECT_EQ(store_->stats().buffer_flushes, 1u);
  EXPECT_EQ(store_->buffer_fill(), 2u);
  Bytes out(store_->payload_size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(store_->Read(ids[i], out.data()).ok());
    EXPECT_EQ(out, Payload(static_cast<uint8_t>(i)));
  }
}

TEST_F(ObliviousStoreTest, MultiWriteGroupIsAtomicAtCapacity) {
  for (uint64_t id = 0; id < 30; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(0).data()).ok());
  }
  // 30 resident + 3 fresh would exceed N = 32: nothing may be applied.
  const std::vector<RecordId> ids = {500, 501, 502};
  Bytes payloads(ids.size() * store_->payload_size(), 1);
  EXPECT_EQ(store_->MultiWrite(ids, payloads.data()).code(),
            StatusCode::kNoSpace);
  EXPECT_EQ(store_->record_count(), 30u);
  EXPECT_FALSE(store_->Contains(500));
}

TEST_F(ObliviousStoreTest, RemoveEvictsRecord) {
  for (uint64_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(static_cast<uint8_t>(id)).data()).ok());
  }
  ASSERT_TRUE(store_->Remove(5).ok());
  EXPECT_FALSE(store_->Contains(5));
  EXPECT_EQ(store_->record_count(), 15u);
  Bytes out(store_->payload_size());
  EXPECT_EQ(store_->Read(5, out.data()).code(), StatusCode::kNotFound);
  EXPECT_EQ(store_->Remove(5).code(), StatusCode::kNotFound);

  // Eviction frees capacity and re-insertion works.
  ASSERT_TRUE(store_->Insert(5, Payload(99).data()).ok());
  ASSERT_TRUE(store_->Read(5, out.data()).ok());
  EXPECT_EQ(out, Payload(99));

  // The survivors stay intact through the re-orders that drop the stale
  // slots.
  for (uint64_t id = 200; id < 212; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(7).data()).ok());
  }
  for (uint64_t id = 0; id < 16; ++id) {
    if (id == 5) continue;
    ASSERT_TRUE(store_->Read(id, out.data()).ok());
    EXPECT_EQ(out, Payload(static_cast<uint8_t>(id))) << "id " << id;
  }
}

TEST_F(ObliviousStoreTest, DummySamplingStaysUniformAfterRemovals) {
  for (uint64_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(store_->Insert(id, Payload(0).data()).ok());
  }
  // Swap-and-pop must leave no stale ids in the sampling list: a stale
  // id would make DummyRead fail with NotFound.
  for (uint64_t id = 0; id < 16; id += 2) {
    ASSERT_TRUE(store_->Remove(id).ok());
  }
  EXPECT_EQ(store_->record_count(), 8u);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store_->DummyRead().ok()) << "dummy read " << i;
  }
  EXPECT_EQ(store_->stats().dummy_reads, 200u);
  EXPECT_EQ(store_->stats().user_reads, 0u);
}

TEST_F(ObliviousStoreTest, BatchSoakMatchesMirrorProperty) {
  // Mixed batched ops with a mirror, across flush and merge churn.
  std::vector<uint8_t> mirror(32, 0);
  std::vector<uint8_t> present(32, 0);
  Rng rng = testing::MakeTestRng();
  Bytes payloads(8 * store_->payload_size());
  Bytes outs(8 * store_->payload_size());
  for (int round = 0; round < 60; ++round) {
    const size_t k = 1 + rng.Uniform(8);
    std::vector<RecordId> ids(k);
    if (rng.Bernoulli(0.5)) {
      for (size_t i = 0; i < k; ++i) {
        ids[i] = rng.Uniform(32);
        const uint8_t v = static_cast<uint8_t>(rng.Next());
        std::fill(payloads.begin() + i * store_->payload_size(),
                  payloads.begin() + (i + 1) * store_->payload_size(), v);
        // Later duplicates win, exactly like sequential writes.
        mirror[ids[i]] = v;
        present[ids[i]] = 1;
      }
      ASSERT_TRUE(store_->MultiWrite(ids, payloads.data()).ok())
          << "round " << round;
    } else {
      if (std::none_of(present.begin(), present.end(),
                       [](uint8_t p) { return p != 0; })) {
        continue;
      }
      for (size_t i = 0; i < k; ++i) {
        // Only read ids that exist.
        uint64_t id = rng.Uniform(32);
        while (!present[id]) id = (id + 1) % 32;
        ids[i] = id;
      }
      ASSERT_TRUE(store_->MultiRead(ids, outs.data()).ok())
          << "round " << round;
      for (size_t i = 0; i < k; ++i) {
        ASSERT_EQ(outs[i * store_->payload_size()], mirror[ids[i]])
            << "round " << round << " request " << i;
      }
    }
  }
}

// Geometry sweep: the store must keep every record intact under heavy
// churn for any (B, N) shape, from a single level to a deep hierarchy.
struct Geometry {
  uint64_t buffer;
  uint64_t capacity;
};

class ObliviousGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(ObliviousGeometryTest, SoakAllGeometriesProperty) {
  const Geometry g = GetParam();
  const uint64_t hierarchy = 2 * g.capacity - 2 * g.buffer;
  storage::MemBlockDevice mem(hierarchy + g.capacity + 4, 4096);

  ObliviousStoreOptions opts;
  opts.buffer_blocks = g.buffer;
  opts.capacity_blocks = g.capacity;
  opts.partition_base = 0;
  opts.scratch_base = hierarchy;
  opts.drbg_seed = g.buffer * 1000 + g.capacity;
  auto store = ObliviousStore::Create(&mem, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // Mirror of expected contents, updated through Insert and Write.
  std::vector<uint8_t> mirror(g.capacity, 0);
  Bytes payload((*store)->payload_size());
  Bytes out((*store)->payload_size());
  Rng rng(opts.drbg_seed);
  for (int op = 0; op < 500; ++op) {
    const uint64_t id = rng.Uniform(g.capacity);
    const int action = static_cast<int>(rng.Uniform(3));
    if (action == 0 || !(*store)->Contains(id)) {
      const uint8_t v = static_cast<uint8_t>(rng.Next());
      std::fill(payload.begin(), payload.end(), v);
      ASSERT_TRUE((*store)->Insert(id, payload.data()).ok());
      mirror[id] = v;
    } else if (action == 1) {
      const uint8_t v = static_cast<uint8_t>(rng.Next());
      std::fill(payload.begin(), payload.end(), v);
      ASSERT_TRUE((*store)->Write(id, payload.data()).ok());
      mirror[id] = v;
    } else {
      ASSERT_TRUE((*store)->Read(id, out.data()).ok());
      ASSERT_EQ(out[0], mirror[id]) << "op " << op << " id " << id;
      ASSERT_EQ(out.back(), mirror[id]);
    }
  }
  // Final sweep: everything ever inserted is still correct.
  for (uint64_t id = 0; id < g.capacity; ++id) {
    if (!(*store)->Contains(id)) continue;
    ASSERT_TRUE((*store)->Read(id, out.data()).ok());
    ASSERT_EQ(out[0], mirror[id]) << "final id " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, ObliviousGeometryTest,
                         ::testing::Values(Geometry{1, 2}, Geometry{1, 16},
                                           Geometry{4, 8}, Geometry{4, 64},
                                           Geometry{16, 32},
                                           Geometry{8, 256}));

TEST(ObliviousStoreIndexIoTest, ChargedVariantCostsMore) {
  storage::MemBlockDevice mem(128, 4096);

  auto run = [&](bool charge) {
    ObliviousStoreOptions opts = SmallOptions();
    opts.charge_index_io = charge;
    auto store = ObliviousStore::Create(&mem, opts);
    EXPECT_TRUE(store.ok());
    Bytes p((*store)->payload_size(), 1);
    Bytes out((*store)->payload_size());
    for (uint64_t id = 0; id < 16; ++id) {
      EXPECT_TRUE((*store)->Insert(id, p.data()).ok());
    }
    Rng rng = testing::MakeTestRng();
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE((*store)->Read(rng.Uniform(16), out.data()).ok());
    }
    return (*store)->stats().TotalIo();
  };

  const uint64_t plain = run(false);
  const uint64_t charged = run(true);
  EXPECT_GT(charged, plain);
}

TEST(ObliviousStoreIndexIoTest, ChargedRebuildsKeepEveryRecordReadable) {
  // The index-rebuild charge writes a sequential burst after every
  // re-order; the burst must land where no record lives. Fill to
  // capacity, churn hidden writes across many cascades under both
  // schedules, and check every record against a reference map.
  for (const bool deamortize : {false, true}) {
    SCOPED_TRACE(deamortize ? "deamortized" : "blocking");
    ObliviousStoreOptions opts;
    opts.buffer_blocks = 4;
    opts.capacity_blocks = 64;  // 4 levels: deep enough to deamortize
    opts.partition_base = 0;
    opts.scratch_base = 120;
    opts.shadow_base = 184;
    opts.deamortize_reorders = deamortize;
    opts.charge_index_io = true;
    opts.drbg_seed = 5;
    storage::MemBlockDevice mem(304, 4096);
    auto store = ObliviousStore::Create(&mem, opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ((*store)->deamortized(), deamortize);
    const size_t ps = (*store)->payload_size();

    std::map<RecordId, uint8_t> mirror;
    for (RecordId id = 0; id < 64; ++id) {
      mirror[id] = static_cast<uint8_t>(id);
      ASSERT_TRUE((*store)->Insert(id, Bytes(ps, mirror[id]).data()).ok());
    }
    Rng rng = testing::MakeTestRng();
    Bytes out(ps);
    uint64_t wrong = 0;  // reads that did not return the last write
    for (int op = 0; op < 400; ++op) {
      const RecordId id = rng.Uniform(64);
      if (rng.Uniform(2) == 0) {
        mirror[id] = static_cast<uint8_t>(rng.Next());
        ASSERT_TRUE((*store)->Write(id, Bytes(ps, mirror[id]).data()).ok());
      } else {
        ASSERT_TRUE((*store)->Read(id, out.data()).ok());
        wrong += out != Bytes(ps, mirror[id]);
      }
    }
    EXPECT_GT((*store)->stats().index_io, 0u);
    for (const auto& [id, value] : mirror) {
      ASSERT_TRUE((*store)->Read(id, out.data()).ok());
      wrong += out != Bytes(ps, value);
    }
    EXPECT_EQ(wrong, 0u);
  }
}

// Every serving stall is one sample of the store's stall histogram;
// stats() and the registry read the stall total and maximum from it.
TEST(ObliviousStoreStallTest, StallFiguresAgreeWithSortTimeAndRegistry) {
  for (const bool deamortize : {false, true}) {
    SCOPED_TRACE(deamortize ? "deamortized" : "blocking");
    ObliviousStoreOptions opts = SmallOptions();
    opts.deamortize_reorders = deamortize;
    opts.shadow_base = 92;  // past the scratch partition [60, 92)
    obs::Registry registry;
    opts.registry = &registry;
    storage::MemBlockDevice mem(148, 4096);
    storage::SimBlockDevice sim(&mem, storage::DiskModelParams{});
    auto store = ObliviousStore::Create(&sim, opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ((*store)->deamortized(), deamortize);
    (*store)->set_clock_fn([&sim] { return sim.clock_ms(); });

    Bytes payload((*store)->payload_size(), 0x5a);
    for (RecordId id = 0; id < 24; ++id) {
      ASSERT_TRUE((*store)->Insert(id, payload.data()).ok());
    }
    Rng rng(2024);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)->Read(rng.Uniform(24), payload.data()).ok());
    }

    const ObliviousStats stats = (*store)->stats();
    EXPECT_GT(stats.reorders, 0u);
    if (deamortize) {
      EXPECT_LE(stats.stall_ms, stats.sort_ms);
    } else {
      // A blocking re-order runs whole inside the op that triggered it.
      EXPECT_EQ(stats.stall_ms, stats.sort_ms);
    }
    EXPECT_GT(stats.max_stall_ms, 0.0);
    EXPECT_LE(stats.max_stall_ms, stats.stall_ms);
    const auto snap = registry.Snapshot();
    EXPECT_EQ(snap.at("store.stall_total_ms"), stats.stall_ms);
    EXPECT_EQ(snap.at("store.stall_ms.max"), stats.max_stall_ms);
  }
}

}  // namespace
}  // namespace steghide::oblivious
