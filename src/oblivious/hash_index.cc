#include "oblivious/hash_index.h"

#include <algorithm>
#include <bit>

namespace steghide::oblivious {

namespace {
// Smallest table a put or rebuild sizes, in entries.
constexpr size_t kMinTable = 16;
}  // namespace

void HashIndex::Rebuild(uint64_t nonce, size_t expected) {
  nonce_ = nonce;
  size_ = 0;
  // assign() reuses the vector's storage whenever it is large enough.
  table_.assign(std::bit_ceil(std::max(kMinTable, 2 * expected)), Entry{});
}

uint64_t HashIndex::HashKey(RecordId id) const {
  // splitmix64-style mix of (nonce, id); the nonce re-keys the mapping on
  // every rebuild. Each step (add, xor-shift, odd multiply) is invertible.
  uint64_t z = id + nonce_ + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t HashIndex::Find(uint64_t key) const {
  // Terminates: the table is never more than half full.
  const size_t mask = table_.size() - 1;
  for (size_t pos = key & mask;; pos = (pos + 1) & mask) {
    const Entry& e = table_[pos];
    if (e.slot == kEmpty || e.key == key) return pos;
  }
}

void HashIndex::Regrow(size_t capacity) {
  std::vector<Entry> old = std::move(table_);
  table_.assign(capacity, Entry{});
  for (const Entry& e : old) {
    if (e.slot != kEmpty) table_[Find(e.key)] = e;
  }
}

bool HashIndex::Put(RecordId id, uint64_t slot) {
  if (2 * (size_ + 1) > table_.size()) {
    Regrow(std::max(kMinTable, 2 * table_.size()));
  }
  const uint64_t key = HashKey(id);
  Entry& e = table_[Find(key)];
  const bool fresh = e.slot == kEmpty;
  if (fresh) {
    e.key = key;
    ++size_;
  }
  e.slot = slot;
  return fresh;
}

std::optional<uint64_t> HashIndex::Get(RecordId id) const {
  if (size_ == 0) return std::nullopt;
  const Entry& e = table_[Find(HashKey(id))];
  if (e.slot == kEmpty) return std::nullopt;
  return e.slot;
}

void HashIndex::Erase(RecordId id) {
  if (size_ == 0) return;
  const size_t mask = table_.size() - 1;
  size_t hole = Find(HashKey(id));
  if (table_[hole].slot == kEmpty) return;
  --size_;
  // Backward shift: pull each later entry of the probe run into the hole
  // when the hole lies on its probe path (at or after its home, going
  // round), so every remaining entry stays reachable without tombstones.
  for (size_t pos = (hole + 1) & mask; table_[pos].slot != kEmpty;
       pos = (pos + 1) & mask) {
    const size_t home = table_[pos].key & mask;
    if (((pos - home) & mask) >= ((pos - hole) & mask)) {
      table_[hole] = table_[pos];
      hole = pos;
    }
  }
  table_[hole] = Entry{};
}

}  // namespace steghide::oblivious
