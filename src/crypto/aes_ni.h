#ifndef STEGHIDE_CRYPTO_AES_NI_H_
#define STEGHIDE_CRYPTO_AES_NI_H_

#include <cstddef>
#include <cstdint>

namespace steghide::crypto::aesni {

// x86-64 AES-NI kernels. Round keys come serialized from the scalar
// Aes key schedule (big-endian word dump): `rk` is the standard FIPS 197
// encryption schedule, `dk` the equivalent-inverse-cipher schedule
// (round order reversed, InvMixColumns applied to the inner round keys) —
// exactly the layout `aesdec` expects, so the scalar expansion stays the
// single source of truth for both paths.
//
// Every kernel must only be called when CpuCryptoSupport().aes is true
// (.vaes for the use_vaes encrypt path); on other platforms the
// definitions are aborting stubs.

/// True when this translation unit was built with real AES-NI kernels.
bool Compiled();

/// One CBC chain of `nblocks` 16-byte blocks. Encryption is inherently
/// serial within the chain; decryption pipelines 8 blocks across the AES
/// units. `in` and `out` may alias exactly.
void CbcEncrypt(const uint8_t* rk, int rounds, const uint8_t iv[16],
                const uint8_t* in, uint8_t* out, size_t nblocks);
void CbcDecrypt(const uint8_t* dk, int rounds, const uint8_t iv[16],
                const uint8_t* in, uint8_t* out, size_t nblocks);

/// `nchains` independent CBC chains of `nblocks` blocks each: chain i runs
/// ins[i] -> outs[i] under ivs[i]. Interleaves 4 chains across the AES
/// units (8 chains per iteration on VAES hardware when `use_vaes`), which
/// is what makes batched sealing run at decrypt-like throughput despite
/// CBC encryption being serial per chain.
void CbcEncryptChains(const uint8_t* rk, int rounds,
                      const uint8_t* const* ivs, const uint8_t* const* ins,
                      uint8_t* const* outs, size_t nblocks, size_t nchains,
                      bool use_vaes);

}  // namespace steghide::crypto::aesni

#endif  // STEGHIDE_CRYPTO_AES_NI_H_
