#include "crypto/sha256.h"

#include <cstring>

#include "crypto/cpu_features.h"
#if defined(__aarch64__)
#include "crypto/aes_armv8.h"
#else
#include "crypto/sha_ni.h"
#endif

namespace steghide::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__aarch64__)
namespace hwsha = shaarm;
#else
namespace hwsha = shani;
#endif

// The scalar round function over one block.
void CompressScalar(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = LoadBigEndian32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 =
        Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 =
        Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  std::memcpy(h_, kInitialState.data(), sizeof(h_));
  buffer_len_ = 0;
  total_len_ = 0;
  accel_ = Sha256Accelerated();
}

void Sha256::Compress(uint32_t state[8], const uint8_t* blocks,
                      size_t nblocks, bool accel) {
  if (accel) {
    hwsha::Compress(state, blocks, nblocks);
    return;
  }
  for (size_t i = 0; i < nblocks; ++i) {
    CompressScalar(state, blocks + i * kBlockSize);
  }
}

void Sha256::Update(const uint8_t* data, size_t n) {
  total_len_ += n;
  if (buffer_len_ > 0) {
    const size_t take = std::min(n, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    n -= take;
    if (buffer_len_ == kBlockSize) {
      Compress(h_, buffer_, 1, accel_);
      buffer_len_ = 0;
    }
  }
  if (n >= kBlockSize) {
    // Feed the whole run of full blocks to one kernel invocation; the
    // hardware path keeps the state in registers across blocks.
    const size_t full = n / kBlockSize;
    Compress(h_, data, full, accel_);
    data += full * kBlockSize;
    n -= full * kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_, data, n);
    buffer_len_ = n;
  }
}

Sha256::Digest Sha256::Finish() {
  // Update leaves fewer than 64 bytes buffered, so the 0x80 marker fits;
  // when the 8-byte length no longer does, the padding spills into a
  // second block.
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    Compress(h_, buffer_, 1, accel_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  StoreBigEndian64(buffer_ + kBlockSize - 8, bit_len);
  Compress(h_, buffer_, 1, accel_);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) StoreBigEndian32(out.data() + 4 * i, h_[i]);
  return out;
}

Sha256::Digest Sha256::Hash(const uint8_t* data, size_t n) {
  Sha256 h;
  h.Update(data, n);
  return h.Finish();
}

}  // namespace steghide::crypto
