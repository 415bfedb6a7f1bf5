#include "crypto/drbg.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace steghide::crypto {

HashDrbg::HashDrbg(const Bytes& seed) {
  Sha256 h;
  h.Update("steghide-drbg-init");
  h.Update(seed);
  v_ = h.Finish();
  block_offset_ = Sha256::kDigestSize;  // force generation on first use
}

HashDrbg::HashDrbg(uint64_t seed) : HashDrbg([&] {
      Bytes b(8);
      StoreBigEndian64(b.data(), seed);
      return b;
    }()) {}

void HashDrbg::Ratchet() {
  // block_i = H(V || i), the counter-mode output stage of Hash_DRBG.
  uint8_t ctr[8];
  StoreBigEndian64(ctr, counter_++);
  Sha256 h;
  h.Update(v_.data(), v_.size());
  h.Update(ctr, sizeof(ctr));
  block_ = h.Finish();
  block_offset_ = 0;
}

void HashDrbg::Generate(uint8_t* out, size_t n) {
  while (n > 0) {
    if (block_offset_ >= Sha256::kDigestSize) Ratchet();
    const size_t take =
        std::min(n, Sha256::kDigestSize - block_offset_);
    std::memcpy(out, block_.data() + block_offset_, take);
    block_offset_ += take;
    out += take;
    n -= take;
  }
}

Bytes HashDrbg::Generate(size_t n) {
  Bytes out(n);
  Generate(out.data(), n);
  return out;
}

uint64_t HashDrbg::NextUint64() {
  uint8_t buf[8];
  Generate(buf, sizeof(buf));
  return LoadBigEndian64(buf);
}

uint64_t HashDrbg::Uniform(uint64_t bound) {
  assert(bound > 0);
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

}  // namespace steghide::crypto
