#include "crypto/aes_ni.h"

#include <cstdlib>

// The real kernels need the AES-NI instruction set, which the build adds
// for this file only (see src/crypto/CMakeLists.txt); the rest of the
// binary stays portable and the dispatcher guarantees these functions are
// only reached when CPUID reports support.
#if defined(__x86_64__) && defined(__AES__)
#define STEGHIDE_HAVE_AESNI 1
#include <immintrin.h>
#endif

namespace steghide::crypto::aesni {

#if defined(STEGHIDE_HAVE_AESNI)

namespace {

constexpr int kMaxRounds = 14;

inline void LoadKeys(const uint8_t* rk, int rounds, __m128i* k) {
  for (int r = 0; r <= rounds; ++r) {
    k[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * r));
  }
}

inline __m128i EncryptOne(const __m128i* k, int rounds, __m128i x) {
  x = _mm_xor_si128(x, k[0]);
  for (int r = 1; r < rounds; ++r) x = _mm_aesenc_si128(x, k[r]);
  return _mm_aesenclast_si128(x, k[rounds]);
}

inline __m128i DecryptOne(const __m128i* k, int rounds, __m128i x) {
  x = _mm_xor_si128(x, k[0]);
  for (int r = 1; r < rounds; ++r) x = _mm_aesdec_si128(x, k[r]);
  return _mm_aesdeclast_si128(x, k[rounds]);
}

// Four interleaved chains: each aesenc result is needed by the next round
// of the *same* chain only, so four independent chains keep the pipelined
// AES units busy where a single CBC chain would stall on the data
// dependency.
void EncryptChains4(const __m128i* k, int rounds, const uint8_t* const* ivs,
                    const uint8_t* const* ins, uint8_t* const* outs,
                    size_t nblocks) {
  __m128i chain[4];
  for (int i = 0; i < 4; ++i) {
    chain[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ivs[i]));
  }
  for (size_t b = 0; b < nblocks; ++b) {
    __m128i x[4];
    for (int i = 0; i < 4; ++i) {
      const __m128i m =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ins[i] + 16 * b));
      x[i] = _mm_xor_si128(_mm_xor_si128(m, chain[i]), k[0]);
    }
    for (int r = 1; r < rounds; ++r) {
      for (int i = 0; i < 4; ++i) x[i] = _mm_aesenc_si128(x[i], k[r]);
    }
    for (int i = 0; i < 4; ++i) {
      chain[i] = _mm_aesenclast_si128(x[i], k[rounds]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(outs[i] + 16 * b),
                       chain[i]);
    }
  }
}

// Eight chains per iteration, two per ymm register. Only reached when
// CPUID reports VAES + AVX2 with OS-enabled ymm state.
__attribute__((target("vaes,avx2,aes"))) void EncryptChains8Vaes(
    const uint8_t* rk, int rounds, const uint8_t* const* ivs,
    const uint8_t* const* ins, uint8_t* const* outs, size_t nblocks) {
  __m256i k[kMaxRounds + 1] = {};
  for (int r = 0; r <= rounds; ++r) {
    k[r] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * r)));
  }
  __m256i chain[4];
  for (int j = 0; j < 4; ++j) {
    chain[j] = _mm256_set_m128i(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ivs[2 * j + 1])),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ivs[2 * j])));
  }
  for (size_t b = 0; b < nblocks; ++b) {
    __m256i x[4];
    for (int j = 0; j < 4; ++j) {
      const __m256i m = _mm256_set_m128i(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(ins[2 * j + 1] + 16 * b)),
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(ins[2 * j] + 16 * b)));
      x[j] = _mm256_xor_si256(_mm256_xor_si256(m, chain[j]), k[0]);
    }
    for (int r = 1; r < rounds; ++r) {
      for (int j = 0; j < 4; ++j) x[j] = _mm256_aesenc_epi128(x[j], k[r]);
    }
    for (int j = 0; j < 4; ++j) {
      chain[j] = _mm256_aesenclast_epi128(x[j], k[rounds]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(outs[2 * j] + 16 * b),
                       _mm256_castsi256_si128(chain[j]));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(outs[2 * j + 1] + 16 * b),
                       _mm256_extracti128_si256(chain[j], 1));
    }
  }
  _mm256_zeroupper();
}

}  // namespace

bool Compiled() { return true; }

void CbcEncrypt(const uint8_t* rk, int rounds, const uint8_t iv[16],
                const uint8_t* in, uint8_t* out, size_t nblocks) {
  __m128i k[kMaxRounds + 1] = {};
  LoadKeys(rk, rounds, k);
  __m128i chain = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv));
  for (size_t b = 0; b < nblocks; ++b) {
    const __m128i m =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * b));
    chain = EncryptOne(k, rounds, _mm_xor_si128(m, chain));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * b), chain);
  }
}

void CbcDecrypt(const uint8_t* dk, int rounds, const uint8_t iv[16],
                const uint8_t* in, uint8_t* out, size_t nblocks) {
  __m128i k[kMaxRounds + 1] = {};
  LoadKeys(dk, rounds, k);
  __m128i prev = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv));
  size_t b = 0;
  // Within a chain decryption is data-parallel: pipeline 8 blocks per
  // iteration. All 8 ciphertext blocks are loaded before any plaintext is
  // stored, so exact in == out aliasing is safe.
  for (; b + 8 <= nblocks; b += 8) {
    __m128i c[8], x[8];
    for (int i = 0; i < 8; ++i) {
      c[i] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(in + 16 * (b + i)));
      x[i] = _mm_xor_si128(c[i], k[0]);
    }
    for (int r = 1; r < rounds; ++r) {
      for (int i = 0; i < 8; ++i) x[i] = _mm_aesdec_si128(x[i], k[r]);
    }
    for (int i = 0; i < 8; ++i) x[i] = _mm_aesdeclast_si128(x[i], k[rounds]);
    x[0] = _mm_xor_si128(x[0], prev);
    for (int i = 1; i < 8; ++i) x[i] = _mm_xor_si128(x[i], c[i - 1]);
    prev = c[7];
    for (int i = 0; i < 8; ++i) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * (b + i)), x[i]);
    }
  }
  for (; b < nblocks; ++b) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * b));
    const __m128i x = _mm_xor_si128(DecryptOne(k, rounds, c), prev);
    prev = c;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * b), x);
  }
}

void CbcEncryptChains(const uint8_t* rk, int rounds,
                      const uint8_t* const* ivs, const uint8_t* const* ins,
                      uint8_t* const* outs, size_t nblocks, size_t nchains,
                      bool use_vaes) {
  size_t c = 0;
  if (use_vaes) {
    for (; c + 8 <= nchains; c += 8) {
      EncryptChains8Vaes(rk, rounds, ivs + c, ins + c, outs + c, nblocks);
    }
  }
  __m128i k[kMaxRounds + 1] = {};
  LoadKeys(rk, rounds, k);
  for (; c + 4 <= nchains; c += 4) {
    EncryptChains4(k, rounds, ivs + c, ins + c, outs + c, nblocks);
  }
  for (; c < nchains; ++c) {
    CbcEncrypt(rk, rounds, ivs[c], ins[c], outs[c], nblocks);
  }
}

#else  // !STEGHIDE_HAVE_AESNI

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

#endif  // STEGHIDE_HAVE_AESNI

}  // namespace steghide::crypto::aesni
