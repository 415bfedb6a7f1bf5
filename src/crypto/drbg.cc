#include "crypto/drbg.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "crypto/cpu_features.h"

namespace steghide::crypto {

namespace {

constexpr size_t kCounterOffset = Sha256::kDigestSize;
constexpr size_t kMessageSize = kCounterOffset + 8;

}  // namespace

HashDrbg::HashDrbg(const Bytes& seed) : accel_(Sha256Accelerated()) {
  Sha256 h;
  h.Update("steghide-drbg-init");
  h.Update(seed);
  const Sha256::Digest v = h.Finish();
  // V ‖ BE64(i) then SHA-256's padding: the 0x80 marker, zeros, and the
  // message length in bits in the last 8 bytes.
  std::memcpy(message_, v.data(), v.size());
  message_[kMessageSize] = 0x80;
  StoreBigEndian64(message_ + Sha256::kBlockSize - 8, kMessageSize * 8);
  block_offset_ = Sha256::kDigestSize;  // force generation on first use
}

HashDrbg::HashDrbg(uint64_t seed) : HashDrbg([&] {
      Bytes b(8);
      StoreBigEndian64(b.data(), seed);
      return b;
    }()) {}

void HashDrbg::NextBlock(uint8_t* out) {
  // block_i = H(V || i), the counter-mode output stage of Hash_DRBG.
  StoreBigEndian64(message_ + kCounterOffset, counter_++);
  std::array<uint32_t, 8> state = Sha256::kInitialState;
  Sha256::Compress(state.data(), message_, 1, accel_);
  for (int i = 0; i < 8; ++i) StoreBigEndian32(out + 4 * i, state[i]);
}

void HashDrbg::Generate(uint8_t* out, size_t n) {
  // Finish the current block, write whole blocks straight into `out`,
  // and keep only a partial tail in block_.
  const size_t head = std::min(n, Sha256::kDigestSize - block_offset_);
  if (head > 0) {
    std::memcpy(out, block_.data() + block_offset_, head);
    block_offset_ += head;
    out += head;
    n -= head;
  }
  for (; n >= Sha256::kDigestSize; n -= Sha256::kDigestSize) {
    NextBlock(out);
    out += Sha256::kDigestSize;
  }
  if (n > 0) {
    NextBlock(block_.data());
    std::memcpy(out, block_.data(), n);
    block_offset_ = n;
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
