#ifndef STEGHIDE_AGENT_OBLIVIOUS_AGENT_H_
#define STEGHIDE_AGENT_OBLIVIOUS_AGENT_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "agent/volatile_agent.h"
#include "oblivious/oblivious_store.h"
#include "oblivious/steg_partition_reader.h"
#include "obs/trace_log.h"
#include "storage/thread_check.h"

namespace steghide::agent {

/// The complete system of Section 5: a volatile agent whose *updates* are
/// hidden by the Figure-6 mechanism on the StegFS partition, and whose
/// *reads* are diverted to the oblivious storage.
///
/// Consistency rule (§5.1.2): a write enters the oblivious cache as a
/// hidden update (indistinguishable from a read on the wire) and is
/// "repeated on the StegFS partition to ensure consistency" through the
/// update engine. The cache keys records by (file, logical block), so
/// relocations on the StegFS partition never invalidate cached content.
///
/// The two partitions may live on the same device (disjoint block ranges)
/// or on separate devices; the constructor takes them independently.
///
/// Thread safety: the agent, with its volatile agent, store, reader and
/// the cores below, has one owner thread at a time
/// (storage/thread_check.h). A RequestDispatcher's I/O thread owns it
/// from the dispatcher's construction to Stop(); other threads reach it
/// only through the dispatcher, whose cross-file ReadGroup/WriteGroup
/// seam commits k concurrent user requests as one level-scan group, and
/// through the lock-free stats() snapshots. Ownership moves across a
/// thread start or join. Hidden-access I/O (Read/Write,
/// ReadGroup/WriteGroup, IdleDummyOp) checks the rule in debug builds;
/// session calls are checked by the volatile agent.
class ObliviousAgent {
 public:
  using UserId = VolatileAgent::UserId;
  using FileId = VolatileAgent::FileId;

  /// `core` is the StegFS partition; `cache_device` hosts the oblivious
  /// hierarchy + scratch per `store_options`. Neither is owned.
  static Result<std::unique_ptr<ObliviousAgent>> Create(
      stegfs::StegFsCore* core, storage::BlockDevice* cache_device,
      const oblivious::ObliviousStoreOptions& store_options);

  // ---- Sessions (forwarded to the volatile agent) -----------------------

  Result<FileId> DiscloseHiddenFile(const UserId& user,
                                    const stegfs::FileAccessKey& fak) {
    return agent_.DiscloseHiddenFile(user, fak);
  }
  Result<FileId> DiscloseDummyFile(const UserId& user,
                                   const stegfs::FileAccessKey& fak) {
    return agent_.DiscloseDummyFile(user, fak);
  }
  Result<FileId> CreateHiddenFile(const UserId& user) {
    return agent_.CreateHiddenFile(user);
  }
  Result<FileId> CreateDummyFile(const UserId& user, uint64_t num_blocks) {
    return agent_.CreateDummyFile(user, num_blocks);
  }
  Status Logout(const UserId& user) { return agent_.Logout(user); }
  Result<stegfs::FileAccessKey> GetFak(FileId id) const {
    return agent_.GetFak(id);
  }
  Result<uint64_t> FileSize(FileId id) const { return agent_.FileSize(id); }
  Status Flush(FileId id) { return agent_.Flush(id); }

  // ---- Hidden-access I/O -------------------------------------------------

  /// One read of a cross-file group (dispatcher aggregation unit).
  struct ReadRequest {
    FileId file = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
  };
  /// One write of a cross-file group.
  struct WriteRequest {
    FileId file = 0;
    uint64_t offset = 0;
    Bytes data;
  };

  /// Oblivious read: buffer/levels of the cache, with first-time fetches
  /// randomised per Figure 8(a). The one-request case of ReadGroup.
  Result<Bytes> Read(FileId id, uint64_t offset, size_t n);

  /// Cross-file batched oblivious read: requests[i] may address any mix
  /// of files; the union of covered blocks across *all* files is served
  /// by one miss-fill pass and one MultiRead group per store-buffer-size
  /// chunk. This is the group-commit entry point of the request
  /// dispatcher: k concurrent users' reads cost one level-scan pass per
  /// chunk instead of one pass each.
  Result<std::vector<Bytes>> ReadGroup(std::span<const ReadRequest> requests);

  /// Hidden write: cache write (read-shaped on the wire) + Figure-6
  /// relocating update on the StegFS partition. The one-request case of
  /// WriteGroup.
  Status Write(FileId id, uint64_t offset, const uint8_t* data, size_t n);
  Status Write(FileId id, uint64_t offset, const Bytes& data) {
    return Write(id, offset, data.data(), data.size());
  }

  /// Cross-file batched hidden write (dispatcher group commit): the RMW
  /// prefetches of every request share one oblivious read group, the
  /// per-block Figure-6 relocating updates run in request order
  /// (they are inherently sequential), and all cache refreshes land in
  /// one MultiWrite group. Overlapping writes resolve last-wins.
  Status WriteGroup(std::span<const WriteRequest> requests);

  /// One idle-time dummy op on every traffic surface: a dummy update on
  /// the StegFS partition (§4.1.3), a dummy partition read and a dummy
  /// oblivious read (§5.1.1).
  Status IdleDummyOp();

  // ---- Introspection -------------------------------------------------------

  VolatileAgent& volatile_agent() { return agent_; }
  oblivious::ObliviousStore& store() { return *store_; }
  const oblivious::StegPartitionReader& reader() const { return *reader_; }

 private:
  ObliviousAgent(stegfs::StegFsCore* core,
                 std::unique_ptr<oblivious::ObliviousStore> store);

  stegfs::StegFsCore* core_;
  VolatileAgent agent_;
  std::unique_ptr<oblivious::ObliviousStore> store_;
  std::unique_ptr<oblivious::StegPartitionReader> reader_;
  /// Span sink shared with the store (ObliviousStoreOptions::trace);
  /// null when observability is off.
  obs::TraceLog* trace_ = nullptr;
  uint32_t trace_track_ = 0;
  /// Checks the one-owner rule for hidden-access I/O; it covers the
  /// reader and its Figure-8(a) state too.
  storage::SerialCallChecker serial_check_;

  // ReadGroup scratch, kept across groups: the group's files sorted by
  // id, its block refs and their payloads.
  std::vector<std::pair<FileId, const stegfs::HiddenFile*>> group_files_;
  std::vector<oblivious::StegPartitionReader::BlockRef> group_refs_;
  Bytes group_blocks_;
};

}  // namespace steghide::agent

#endif  // STEGHIDE_AGENT_OBLIVIOUS_AGENT_H_
