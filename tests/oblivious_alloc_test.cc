// Allocation pin for the serving path: once a store and an agent are
// warm, a MultiRead of B cached ids allocates nothing, and the agent's
// ReadGroup of B one-block requests allocates only its replies (the
// result vector and one byte string per request). A counting global
// operator new sees every container allocation of the calls under test;
// it counts only while a test enables it.
//
// The stores here stay below the re-order run floor (256 records), so
// every re-order sorts in memory: an external merge allocates its run
// cursors' look-ahead buffers on purpose and releases them when it ends.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "agent/oblivious_agent.h"
#include "oblivious/oblivious_store.h"
#include "storage/mem_block_device.h"
#include "util/random.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

// Out of line, so the compiler does not pair an inlined free() with the
// operator new it sees at a call site.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

/// Allocations made by `fn`.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(n, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(n, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}

namespace steghide {
namespace {

constexpr uint64_t kBuffer = 16;
constexpr uint64_t kCapacity = 512;
constexpr uint64_t kRecords = 200;
constexpr int kWarmupRounds = 3000;
constexpr int kMeasuredRounds = 64;

oblivious::ObliviousStoreOptions PinOptions() {
  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = kBuffer;
  opts.capacity_blocks = kCapacity;
  opts.partition_base = 0;
  opts.scratch_base = 2 * kCapacity - 2 * kBuffer;
  return opts;
}

/// Draws kBuffer distinct values below `bound` into `out`.
void DrawDistinct(Rng& rng, uint64_t bound, std::vector<uint64_t>& pool,
                  std::vector<uint64_t>& out) {
  pool.resize(bound);
  for (uint64_t i = 0; i < bound; ++i) pool[i] = i;
  out.clear();
  for (uint64_t i = 0; i < kBuffer; ++i) {
    std::swap(pool[i], pool[i + rng.Uniform(bound - i)]);
    out.push_back(pool[i]);
  }
}

uint8_t ContentByte(uint64_t record, size_t i) {
  return static_cast<uint8_t>(record * 13 + i);
}

TEST(ServingAllocationTest, WarmMultiReadOfBCachedIdsAllocatesNothing) {
  storage::MemBlockDevice dev(3 * kCapacity, 4096);
  auto created = oblivious::ObliviousStore::Create(&dev, PinOptions());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  oblivious::ObliviousStore& store = **created;
  const size_t ps = store.payload_size();

  Bytes payloads(kRecords * ps);
  std::vector<oblivious::RecordId> ids(kRecords);
  for (uint64_t r = 0; r < kRecords; ++r) {
    ids[r] = r;
    for (size_t i = 0; i < ps; ++i) payloads[r * ps + i] = ContentByte(r, i);
  }
  ASSERT_TRUE(store.MultiInsert(ids, payloads.data()).ok());

  Rng rng(29);
  std::vector<uint64_t> pool;
  std::vector<uint64_t> group;
  Bytes out(kBuffer * ps);
  // Every level re-orders many times over: all kept storage has grown.
  for (int round = 0; round < kWarmupRounds; ++round) {
    DrawDistinct(rng, kRecords, pool, group);
    ASSERT_TRUE(store.MultiRead(group, out.data()).ok());
  }
  const uint64_t flushes_before = store.stats().buffer_flushes;
  for (int round = 0; round < kMeasuredRounds; ++round) {
    DrawDistinct(rng, kRecords, pool, group);
    Status status = Status::OK();
    const uint64_t allocations = CountAllocations(
        [&] { status = store.MultiRead(group, out.data()); });
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(allocations, 0u) << "round " << round;
    for (uint64_t k = 0; k < kBuffer; ++k) {
      for (size_t i = 0; i < ps; ++i) {
        ASSERT_EQ(out[k * ps + i], ContentByte(group[k], i))
            << "round " << round << " record " << group[k];
      }
    }
  }
  // The measured calls flushed and re-ordered, not just served.
  EXPECT_GE(store.stats().buffer_flushes - flushes_before,
            static_cast<uint64_t>(kMeasuredRounds));
}

TEST(ServingAllocationTest, WarmAgentReadGroupAllocatesOnlyItsReplies) {
  constexpr uint64_t kFileBlocks = 128;
  storage::MemBlockDevice steg_mem(4096, 4096);
  storage::MemBlockDevice cache_mem(3 * kCapacity, 4096);
  stegfs::StegFsCore core(&steg_mem, stegfs::StegFsOptions{43, true});
  ASSERT_TRUE(core.Format().ok());
  auto created =
      agent::ObliviousAgent::Create(&core, &cache_mem, PinOptions());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  agent::ObliviousAgent& agent = **created;
  ASSERT_TRUE(agent.CreateDummyFile("u", 400).ok());
  auto file = agent.CreateHiddenFile("u");
  ASSERT_TRUE(file.ok());
  const size_t ps = core.payload_size();
  Bytes content(kFileBlocks * ps);
  for (uint64_t b = 0; b < kFileBlocks; ++b) {
    for (size_t i = 0; i < ps; ++i) content[b * ps + i] = ContentByte(b, i);
  }
  ASSERT_TRUE(agent.Write(*file, 0, content).ok());

  Rng rng(31);
  std::vector<uint64_t> pool;
  std::vector<uint64_t> blocks;
  std::vector<agent::ObliviousAgent::ReadRequest> requests(kBuffer);
  const auto draw = [&] {
    DrawDistinct(rng, kFileBlocks, pool, blocks);
    for (uint64_t k = 0; k < kBuffer; ++k) {
      requests[k] = {*file, blocks[k] * ps, ps};
    }
  };
  for (int round = 0; round < kWarmupRounds; ++round) {
    draw();
    ASSERT_TRUE(agent.ReadGroup(requests).ok());
  }
  const uint64_t fetches = agent.reader().stats().real_fetches;
  for (int round = 0; round < kMeasuredRounds; ++round) {
    draw();
    Result<std::vector<Bytes>> replies = std::vector<Bytes>();
    const uint64_t allocations =
        CountAllocations([&] { replies = agent.ReadGroup(requests); });
    ASSERT_TRUE(replies.ok()) << replies.status().ToString();
    // The result vector and one payload per request.
    EXPECT_EQ(allocations, kBuffer + 1) << "round " << round;
    for (uint64_t k = 0; k < kBuffer; ++k) {
      ASSERT_EQ((*replies)[k],
                Bytes(content.begin() + static_cast<ptrdiff_t>(blocks[k] * ps),
                      content.begin() +
                          static_cast<ptrdiff_t>((blocks[k] + 1) * ps)))
          << "round " << round << " block " << blocks[k];
    }
  }
  // Every measured block was cached: no first-time fetch ran.
  EXPECT_EQ(agent.reader().stats().real_fetches, fetches);
}

}  // namespace
}  // namespace steghide
