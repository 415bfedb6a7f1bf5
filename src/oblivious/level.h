#ifndef STEGHIDE_OBLIVIOUS_LEVEL_H_
#define STEGHIDE_OBLIVIOUS_LEVEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "oblivious/hash_index.h"

namespace steghide::oblivious {

/// One level of the oblivious-storage hierarchy (Figure 7). Level i
/// (1-based) spans `capacity = 2^i * B` device blocks starting at `base`.
///
/// Slots [0, occupied()) hold sealed records appended since the last
/// re-order. A slot is *stale* when a newer copy of its record exists
/// higher up (in a lower-numbered level or later slot); the index tracks
/// only the authoritative copy per record. Stale slots are still read by
/// dummy probes — to an observer every slot is equally opaque — and are
/// dropped at the next re-order.
///
/// Double buffering (deamortized re-orders): a level may own a second,
/// equally sized *shadow* region at `alt_base`. An incremental re-order
/// builds the next permutation there while scans keep probing the old
/// one at `base`; InstallOrderAt() then flips the two in one step,
/// inside one store operation. The regions ping-pong across re-orders,
/// and both are publicly dedicated to this level, so which one a rebuild
/// targets is a deterministic function of the re-order count —
/// data-independent.
/// When double buffering is off, alt_base == base and installs are
/// in-place, exactly the blocking layout.
struct Level {
  uint64_t base = 0;
  /// Inactive (shadow) region; == base when double buffering is off.
  uint64_t alt_base = 0;
  uint64_t capacity = 0;

  /// slot -> record id, for every occupied slot (including stale ones).
  std::vector<RecordId> slot_ids;

  /// record id -> authoritative slot.
  HashIndex index;

  uint64_t occupied() const { return slot_ids.size(); }
  uint64_t live_count() const { return index.size(); }
  bool empty() const { return slot_ids.empty(); }
  bool double_buffered() const { return alt_base != base; }

  /// True when the slot's record has been superseded within this level.
  bool IsStale(uint64_t slot) const {
    const auto s = index.Get(slot_ids[slot]);
    return !s.has_value() || *s != slot;
  }

  /// Installs a post-re-order layout built at `new_base`: `order` lists
  /// the record ids slot by slot (all authoritative, no duplicates). A
  /// new_base other than base (the shadow region of a double-buffered
  /// rebuild) flips the active base to it, demoting the old region to
  /// shadow; new_base == base installs in place. The ids are copied into
  /// slot_ids, whose storage is kept across installs.
  void InstallOrderAt(uint64_t new_base, std::span<const RecordId> order,
                      uint64_t index_nonce);

  /// Empties the level (after its content was dumped downward).
  void Clear(uint64_t index_nonce);
};

}  // namespace steghide::oblivious

#endif  // STEGHIDE_OBLIVIOUS_LEVEL_H_
