#include "crypto/aes_armv8.h"

#include <cstdlib>

// Built with -march=armv8-a+crypto on aarch64 (see src/crypto/
// CMakeLists.txt); runtime hwcap dispatch guarantees the kernels are only
// reached on hardware that has the extensions.
#if defined(__aarch64__) && \
    (defined(__ARM_FEATURE_CRYPTO) ||  \
     (defined(__ARM_FEATURE_AES) && defined(__ARM_FEATURE_SHA2)))
#define STEGHIDE_HAVE_ARMV8_CRYPTO 1
#include <arm_neon.h>
#endif

namespace steghide::crypto::aesarm {

#if defined(STEGHIDE_HAVE_ARMV8_CRYPTO)

namespace {

constexpr int kMaxRounds = 14;

inline void LoadKeys(const uint8_t* rk, int rounds, uint8x16_t* k) {
  for (int r = 0; r <= rounds; ++r) k[r] = vld1q_u8(rk + 16 * r);
}

// AESE folds AddRoundKey in *before* SubBytes/ShiftRows, so the flat
// operation sequence with the serialized scalar schedules matches the
// x86 aesenc/aesdec flow exactly (same keys, same order).
inline uint8x16_t EncryptOne(const uint8x16_t* k, int rounds, uint8x16_t x) {
  for (int r = 0; r < rounds - 1; ++r) {
    x = vaesmcq_u8(vaeseq_u8(x, k[r]));
  }
  return veorq_u8(vaeseq_u8(x, k[rounds - 1]), k[rounds]);
}

inline uint8x16_t DecryptOne(const uint8x16_t* k, int rounds, uint8x16_t x) {
  for (int r = 0; r < rounds - 1; ++r) {
    x = vaesimcq_u8(vaesdq_u8(x, k[r]));
  }
  return veorq_u8(vaesdq_u8(x, k[rounds - 1]), k[rounds]);
}

}  // namespace

bool Compiled() { return true; }

void CbcEncrypt(const uint8_t* rk, int rounds, const uint8_t iv[16],
                const uint8_t* in, uint8_t* out, size_t nblocks) {
  uint8x16_t k[kMaxRounds + 1] = {};
  LoadKeys(rk, rounds, k);
  uint8x16_t chain = vld1q_u8(iv);
  for (size_t b = 0; b < nblocks; ++b) {
    chain = EncryptOne(k, rounds, veorq_u8(vld1q_u8(in + 16 * b), chain));
    vst1q_u8(out + 16 * b, chain);
  }
}

void CbcDecrypt(const uint8_t* dk, int rounds, const uint8_t iv[16],
                const uint8_t* in, uint8_t* out, size_t nblocks) {
  uint8x16_t k[kMaxRounds + 1] = {};
  LoadKeys(dk, rounds, k);
  uint8x16_t prev = vld1q_u8(iv);
  size_t b = 0;
  // Pipeline 4 independent blocks per iteration; ciphertext is fully
  // loaded before plaintext stores, so in == out aliasing is safe.
  for (; b + 4 <= nblocks; b += 4) {
    uint8x16_t c[4], x[4];
    for (int i = 0; i < 4; ++i) c[i] = vld1q_u8(in + 16 * (b + i));
    for (int i = 0; i < 4; ++i) x[i] = c[i];
    for (int r = 0; r < rounds - 1; ++r) {
      for (int i = 0; i < 4; ++i) x[i] = vaesimcq_u8(vaesdq_u8(x[i], k[r]));
    }
    for (int i = 0; i < 4; ++i) {
      x[i] = veorq_u8(vaesdq_u8(x[i], k[rounds - 1]), k[rounds]);
    }
    x[0] = veorq_u8(x[0], prev);
    for (int i = 1; i < 4; ++i) x[i] = veorq_u8(x[i], c[i - 1]);
    prev = c[3];
    for (int i = 0; i < 4; ++i) vst1q_u8(out + 16 * (b + i), x[i]);
  }
  for (; b < nblocks; ++b) {
    const uint8x16_t c = vld1q_u8(in + 16 * b);
    const uint8x16_t x = veorq_u8(DecryptOne(k, rounds, c), prev);
    prev = c;
    vst1q_u8(out + 16 * b, x);
  }
}

void CbcEncryptChains(const uint8_t* rk, int rounds,
                      const uint8_t* const* ivs, const uint8_t* const* ins,
                      uint8_t* const* outs, size_t nblocks, size_t nchains,
                      bool /*use_vaes*/) {
  uint8x16_t k[kMaxRounds + 1] = {};
  LoadKeys(rk, rounds, k);
  size_t c = 0;
  for (; c + 4 <= nchains; c += 4) {
    uint8x16_t chain[4];
    for (int i = 0; i < 4; ++i) chain[i] = vld1q_u8(ivs[c + i]);
    for (size_t b = 0; b < nblocks; ++b) {
      uint8x16_t x[4];
      for (int i = 0; i < 4; ++i) {
        x[i] = veorq_u8(vld1q_u8(ins[c + i] + 16 * b), chain[i]);
      }
      for (int r = 0; r < rounds - 1; ++r) {
        for (int i = 0; i < 4; ++i) x[i] = vaesmcq_u8(vaeseq_u8(x[i], k[r]));
      }
      for (int i = 0; i < 4; ++i) {
        chain[i] = veorq_u8(vaeseq_u8(x[i], k[rounds - 1]), k[rounds]);
        vst1q_u8(outs[c + i] + 16 * b, chain[i]);
      }
    }
  }
  for (; c < nchains; ++c) {
    CbcEncrypt(rk, rounds, ivs[c], ins[c], outs[c], nblocks);
  }
}

#else  // !STEGHIDE_HAVE_ARMV8_CRYPTO

bool Compiled() { return false; }

void CbcEncrypt(const uint8_t*, int, const uint8_t[16], const uint8_t*,
                uint8_t*, size_t) {
  std::abort();
}
void CbcDecrypt(const uint8_t*, int, const uint8_t[16], const uint8_t*,
                uint8_t*, size_t) {
  std::abort();
}
void CbcEncryptChains(const uint8_t*, int, const uint8_t* const*,
                      const uint8_t* const*, uint8_t* const*, size_t, size_t,
                      bool) {
  std::abort();
}

#endif  // STEGHIDE_HAVE_ARMV8_CRYPTO

}  // namespace steghide::crypto::aesarm

namespace steghide::crypto::shaarm {

#if defined(STEGHIDE_HAVE_ARMV8_CRYPTO)

namespace {

alignas(16) constexpr uint32_t kK[64] = {
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

}  // namespace

bool Compiled() { return true; }

void Compress(uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
  uint32x4_t state0 = vld1q_u32(&state[0]);  // ABCD
  uint32x4_t state1 = vld1q_u32(&state[4]);  // EFGH

  while (nblocks-- > 0) {
    const uint32x4_t abcd_save = state0;
    const uint32x4_t efgh_save = state1;

    uint32x4_t m[4];
    for (int j = 0; j < 4; ++j) {
      m[j] = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(blocks + 16 * j)));
    }

    for (int i = 0; i < 16; ++i) {
      if (i >= 4) {
        m[i & 3] = vsha256su1q_u32(
            vsha256su0q_u32(m[i & 3], m[(i + 1) & 3]), m[(i + 2) & 3],
            m[(i + 3) & 3]);
      }
      const uint32x4_t wk = vaddq_u32(m[i & 3], vld1q_u32(&kK[4 * i]));
      const uint32x4_t abcd = state0;
      state0 = vsha256hq_u32(state0, state1, wk);
      state1 = vsha256h2q_u32(state1, abcd, wk);
    }

    state0 = vaddq_u32(state0, abcd_save);
    state1 = vaddq_u32(state1, efgh_save);
    blocks += 64;
  }

  vst1q_u32(&state[0], state0);
  vst1q_u32(&state[4], state1);
}

#else  // !STEGHIDE_HAVE_ARMV8_CRYPTO

bool Compiled() { return false; }

void Compress(uint32_t[8], const uint8_t*, size_t) { std::abort(); }

#endif  // STEGHIDE_HAVE_ARMV8_CRYPTO

}  // namespace steghide::crypto::shaarm
