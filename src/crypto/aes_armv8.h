#ifndef STEGHIDE_CRYPTO_AES_ARMV8_H_
#define STEGHIDE_CRYPTO_AES_ARMV8_H_

#include <cstddef>
#include <cstdint>

// ARMv8 crypto-extension kernels (AES + SHA2), mirror images of the
// aesni/shani interfaces so the dispatch sites in cbc.cc/sha256.cc pick a
// namespace per architecture and stay otherwise identical. The
// round-key layout is the same serialized scalar schedule: ARM `aesd` +
// `aesimc` consume the equivalent-inverse-cipher keys exactly like x86
// `aesdec`.

namespace steghide::crypto::aesarm {

bool Compiled();

void CbcEncrypt(const uint8_t* rk, int rounds, const uint8_t iv[16],
                const uint8_t* in, uint8_t* out, size_t nblocks);
void CbcDecrypt(const uint8_t* dk, int rounds, const uint8_t iv[16],
                const uint8_t* in, uint8_t* out, size_t nblocks);

void CbcEncryptChains(const uint8_t* rk, int rounds,
                      const uint8_t* const* ivs, const uint8_t* const* ins,
                      uint8_t* const* outs, size_t nblocks, size_t nchains,
                      bool use_vaes);

}  // namespace steghide::crypto::aesarm

namespace steghide::crypto::shaarm {

bool Compiled();

void Compress(uint32_t state[8], const uint8_t* blocks, size_t nblocks);

}  // namespace steghide::crypto::shaarm

#endif  // STEGHIDE_CRYPTO_AES_ARMV8_H_
