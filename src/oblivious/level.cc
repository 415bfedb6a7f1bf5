#include "oblivious/level.h"

#include <utility>

namespace steghide::oblivious {

void Level::InstallOrderAt(uint64_t new_base, std::span<const RecordId> order,
                           uint64_t index_nonce) {
  if (new_base != base) {
    // Ping-pong flip: the freshly built region becomes active, the old
    // permutation's region becomes the next rebuild's target.
    std::swap(base, alt_base);
  }
  slot_ids.assign(order.begin(), order.end());
  index.Rebuild(index_nonce, slot_ids.size());
  for (uint64_t slot = 0; slot < slot_ids.size(); ++slot) {
    index.Put(slot_ids[slot], slot);
  }
}

void Level::Clear(uint64_t index_nonce) {
  slot_ids.clear();
  index.Rebuild(index_nonce);
}

}  // namespace steghide::oblivious
