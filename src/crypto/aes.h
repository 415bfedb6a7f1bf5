#ifndef STEGHIDE_CRYPTO_AES_H_
#define STEGHIDE_CRYPTO_AES_H_

#include <array>
#include <cstdint>

#include "util/bytes.h"
#include "util/status.h"

namespace steghide::crypto {

/// AES block cipher (FIPS 197) with 128/192/256-bit keys. This is the
/// block cipher the paper specifies for encrypting every storage block
/// (Section 6.1).
///
/// The key schedule is always expanded by the portable 32-bit-table code,
/// and EncryptBlock/DecryptBlock always run the table-based rounds: they
/// are the portable reference and CbcCipher's scalar path. When SetKey
/// ran while the accelerated path was active (cpu_features.h),
/// accelerated() is set and CbcCipher runs its modes on the AES-NI /
/// ARMv8 kernels instead. The serialized schedules below are
/// byte-for-byte what the hardware units consume — `dec_rk_` is the
/// equivalent-inverse-cipher layout (FIPS 197 §5.3.5) that
/// `aesdec`/`aesd+aesimc` expect.
///
/// The class only exposes single-block ECB primitives; modes of operation
/// live in cbc.h.
class Aes {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr int kMaxRounds = 14;

  Aes() = default;

  /// Expands `key` (16, 24 or 32 bytes). Any other size yields
  /// InvalidArgument and leaves the cipher unusable.
  Status SetKey(const uint8_t* key, size_t key_len);
  Status SetKey(const Bytes& key) { return SetKey(key.data(), key.size()); }

  bool has_key() const { return rounds_ != 0; }

  /// Encrypts one 16-byte block. `in` and `out` may alias.
  void EncryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

  /// Decrypts one 16-byte block. `in` and `out` may alias.
  void DecryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

  /// Serialized round-key schedules and dispatch state for the hardware
  /// CBC kernels (cbc.cc); not part of the public crypto API.
  const uint8_t* enc_round_keys() const { return enc_rk_; }
  const uint8_t* dec_round_keys() const { return dec_rk_; }
  int rounds() const { return rounds_; }
  bool accelerated() const { return accel_; }

 private:
  // Up to 15 round keys of 4 words each (AES-256: 14 rounds + initial).
  uint32_t enc_keys_[60] = {};
  uint32_t dec_keys_[60] = {};
  // The same schedules as big-endian byte dumps, the layout the hardware
  // AES units load directly.
  uint8_t enc_rk_[16 * (kMaxRounds + 1)] = {};
  uint8_t dec_rk_[16 * (kMaxRounds + 1)] = {};
  int rounds_ = 0;
  bool accel_ = false;
};

}  // namespace steghide::crypto

#endif  // STEGHIDE_CRYPTO_AES_H_
