#include "testing/mirrored_agent.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace steghide::testing {

namespace {

oblivious::ObliviousStoreOptions MirroredStoreOptions(uint64_t drbg_seed) {
  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = 8;
  opts.capacity_blocks = 128;  // levels 16, 32, 64, 128
  opts.partition_base = 0;
  opts.scratch_base = 2 * 128 - 2 * 8;  // 240
  opts.drbg_seed = drbg_seed;
  opts.deamortize_reorders = true;
  opts.shadow_base = 240 + 128;
  opts.reorder_step_blocks = 1;
  return opts;
}

}  // namespace

MirroredAgentSystem::MirroredAgentSystem(
    uint64_t seed, const storage::VolumeSet::Options& options,
    uint64_t drbg_seed)
    : steg_mem(4096, 4096),
      volumes(std::make_unique<storage::VolumeSet>(options)),
      core(&steg_mem, stegfs::StegFsOptions{seed, true}) {
  EXPECT_TRUE(core.Format().ok());
  auto created = agent::ObliviousAgent::Create(
      &core, &volumes->device(), MirroredStoreOptions(drbg_seed));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  agent = std::move(created).value();
  EXPECT_TRUE(agent->CreateDummyFile("u", 600).ok());
}

Bytes MirroredAgentSystem::FileBlock(uint64_t salt, size_t file_index,
                                     size_t block) {
  return Bytes(core.payload_size(),
               static_cast<uint8_t>(salt * 101 + file_index * 37 + block));
}

std::vector<agent::ObliviousAgent::FileId> MirroredAgentSystem::Populate(
    uint64_t salt, size_t files, size_t blocks) {
  std::vector<agent::ObliviousAgent::FileId> ids;
  const size_t payload = core.payload_size();
  for (size_t f = 0; f < files; ++f) {
    auto id = agent->CreateHiddenFile("u");
    EXPECT_TRUE(id.ok());
    Bytes data(blocks * payload);
    for (size_t b = 0; b < blocks; ++b) {
      const Bytes block = FileBlock(salt, f, b);
      std::copy(block.begin(), block.end(), data.begin() + b * payload);
    }
    EXPECT_TRUE(agent->Write(*id, 0, data).ok());
    ids.push_back(*id);
  }
  return ids;
}

void MirroredAgentSystem::BuildReorderBacklog() {
  auto& store = agent->store();
  Bytes payloads(16 * store.payload_size(), 0x5a);
  std::vector<oblivious::RecordId> rids(16);
  for (size_t i = 0; i < rids.size(); ++i) rids[i] = (1u << 20) + i;
  for (int round = 0; round < 32 && !store.reorder_pending(); ++round) {
    ASSERT_TRUE(store.MultiInsert(rids, payloads.data()).ok());
  }
  ASSERT_TRUE(store.reorder_pending()) << "no chain ever went pending";
}

void MirroredAgentSystem::DrainReorders() {
  while (agent->store().reorder_pending()) {
    bool more = false;
    ASSERT_TRUE(agent->store().StepReorder(1 << 20, &more).ok());
  }
}

void MirroredAgentSystem::RepairReplica(size_t k, size_t r) {
  ASSERT_TRUE(volumes->ReviveAndRepair(k, r).ok());
  for (;;) {
    auto pending = volumes->PumpRepair(32);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    if (!*pending) break;
  }
}

}  // namespace steghide::testing
