#include "crypto/drbg.h"

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

void HashDrbg::GenerateLocked(uint8_t* out, size_t n) {
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

uint64_t HashDrbg::NextUint64Locked() {
  uint8_t buf[8];
  GenerateLocked(buf, sizeof(buf));
  return LoadBigEndian64(buf);
}

void HashDrbg::Generate(uint8_t* out, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  GenerateLocked(out, n);
}

Bytes HashDrbg::Generate(size_t n) {
  Bytes out(n);
  Generate(out.data(), n);
  return out;
}

uint64_t HashDrbg::NextUint64() {
  std::lock_guard<std::mutex> lock(mu_);
  return NextUint64Locked();
}

uint64_t HashDrbg::Uniform(uint64_t bound) {
  assert(bound > 0);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t threshold = -bound % bound;
  for (;;) {
    // The rejection loop draws under one lock hold, so a bounded draw is
    // one atomic consumption of the stream, exactly as it is
    // single-threaded.
    const uint64_t r = NextUint64Locked();
    if (r >= threshold) return r % bound;
  }
}

}  // namespace steghide::crypto
