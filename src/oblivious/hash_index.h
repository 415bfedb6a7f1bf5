#ifndef STEGHIDE_OBLIVIOUS_HASH_INDEX_H_
#define STEGHIDE_OBLIVIOUS_HASH_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace steghide::oblivious {

/// Record identifier in the oblivious store (the "logical address" of
/// §5.1.2).
using RecordId = uint64_t;
inline constexpr RecordId kNullRecord = ~RecordId{0};

/// Per-level secondary hash index: logical record id -> slot within the
/// level. The store also uses one as the dedup set of a re-order
/// snapshot (slot 0 for every id).
///
/// Following §5.1.2, the lookup key is a keyed hash of the logical address
/// and a nonce "generated when the hash index is rebuilt", so even if the
/// index were spilled to disk, accesses to it would not correlate across
/// re-orders. We keep the index in agent memory (the paper's primary
/// configuration) but preserve the nonce-keyed structure; the I/O cost of
/// the spilled variant can be charged via
/// ObliviousStoreOptions::charge_index_io.
///
/// The table is flat: linear probing over a power-of-two array of
/// (keyed hash, slot) pairs, at most half full, with backward-shift
/// erase so no tombstones build up. Rebuild() sizes the table for the
/// entries to come but keeps its storage: a level refills to about the
/// same size at every re-order, so a rebuilt index reaches steady state
/// without allocating, and a clear writes only the table it sizes. The
/// table is never iterated, so its layout cannot order anything
/// observable.
class HashIndex {
 public:
  HashIndex() = default;

  /// Clears all entries, installs a fresh nonce and sizes the table for
  /// `expected` entries, so that many puts never grow it. Allocates only
  /// when the table outgrows every earlier size.
  void Rebuild(uint64_t nonce, size_t expected = 0);

  /// Inserts or overwrites the slot for `id`; true when `id` was absent.
  /// `slot` must not be ~0 (the empty marker).
  bool Put(RecordId id, uint64_t slot);

  /// Slot of `id`, if present.
  std::optional<uint64_t> Get(RecordId id) const;

  void Erase(RecordId id);
  size_t size() const { return size_; }
  uint64_t nonce() const { return nonce_; }

  /// Table entries: a power of two, or 0 before the first put or
  /// rebuild.
  size_t capacity() const { return table_.size(); }
  /// Entry where a probe for `id` starts (capacity() > 0); lets tests
  /// build probe clusters.
  size_t HomeOf(RecordId id) const {
    return HashKey(id) & (table_.size() - 1);
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  struct Entry {
    uint64_t key = 0;
    uint64_t slot = kEmpty;
  };

  uint64_t HashKey(RecordId id) const;
  /// Position of `key`, or of the empty entry that ends its probe run.
  size_t Find(uint64_t key) const;
  /// Rehashes every entry into a table of `capacity` entries.
  void Regrow(size_t capacity);

  uint64_t nonce_ = 0;
  // Keyed hash -> slot. HashKey is a bijection of the id for a fixed
  // nonce, so distinct ids never share a key and Get() needs no id.
  std::vector<Entry> table_;
  size_t size_ = 0;
};

}  // namespace steghide::oblivious

#endif  // STEGHIDE_OBLIVIOUS_HASH_INDEX_H_
