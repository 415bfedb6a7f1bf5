#ifndef STEGHIDE_TESTS_TESTING_MIRRORED_AGENT_H_
#define STEGHIDE_TESTS_TESTING_MIRRORED_AGENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "agent/oblivious_agent.h"
#include "stegfs/stegfs_core.h"
#include "storage/mem_block_device.h"
#include "storage/volume_set.h"
#include "util/bytes.h"

namespace steghide::testing {

/// An ObliviousAgent whose cache is a VolumeSet of mirrored shards: the
/// full-stack fixture of the replication and remote-recovery suites.
/// `seed` seeds the StegFS partition and `drbg_seed` the store; the
/// volume comes from `options`, which must give 4096-byte blocks and
/// room for the store's deamortized layout (both suites use 768
/// blocks). Two instances with the same arguments issue identical op
/// streams until their inputs diverge; `salt` varies record *contents*
/// only.
struct MirroredAgentSystem {
  MirroredAgentSystem(uint64_t seed, const storage::VolumeSet::Options& options,
                      uint64_t drbg_seed);

  /// Block `block` of file `file_index`'s Populate() contents.
  Bytes FileBlock(uint64_t salt, size_t file_index, size_t block);

  /// Creates `files` hidden files of `blocks` FileBlock()s each.
  std::vector<agent::ObliviousAgent::FileId> Populate(uint64_t salt,
                                                      size_t files,
                                                      size_t blocks);

  /// Re-stages a small store-layer working set until an incremental
  /// re-order chain is left mid-flight. Agent requests pay serving taxes
  /// op by op, which drains shallow chains before the call returns; raw
  /// MultiInsert bursts stop paying the moment the call ends, so a
  /// cascade reliably outlives the burst that triggered it.
  void BuildReorderBacklog();

  /// Steps the pending re-order chain to completion.
  void DrainReorders();

  /// Revives replica r of shard k and pumps its repair to completion.
  void RepairReplica(size_t k, size_t r);

  storage::MemBlockDevice steg_mem;
  std::unique_ptr<storage::VolumeSet> volumes;
  stegfs::StegFsCore core;
  std::unique_ptr<agent::ObliviousAgent> agent;
};

}  // namespace steghide::testing

#endif  // STEGHIDE_TESTS_TESTING_MIRRORED_AGENT_H_
