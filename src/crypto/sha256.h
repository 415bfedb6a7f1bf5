#ifndef STEGHIDE_CRYPTO_SHA256_H_
#define STEGHIDE_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "util/bytes.h"

namespace steghide::crypto {

/// SHA-256 as specified in FIPS 180-2. The paper uses SHA-256 both as the
/// basis of its pseudo-random number generator and (in our reproduction)
/// to derive block locations and subkeys from file access keys.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  using Digest = std::array<uint8_t, kDigestSize>;

  Sha256();

  /// Absorbs `n` bytes.
  void Update(const uint8_t* data, size_t n);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Produces the digest. The object must not be used afterwards except
  /// via Reset().
  Digest Finish();

  /// Returns the object to its initial state.
  void Reset();

  /// One-shot convenience.
  static Digest Hash(const uint8_t* data, size_t n);
  static Digest Hash(const Bytes& data) { return Hash(data.data(), data.size()); }
  static Digest Hash(std::string_view s) {
    return Hash(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// The initial hash value H(0) of FIPS 180-2.
  static constexpr std::array<uint32_t, 8> kInitialState = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

  /// Runs the compression function over `nblocks` consecutive 64-byte
  /// blocks on a caller-held `state` (the eight working words in FIPS
  /// 180-2 order): one SHA-NI/ARMv8 kernel call when `accel`, the scalar
  /// round function per block otherwise. `accel` must be a value
  /// Sha256Accelerated() returned. For callers that pad their own
  /// message, such as HashDrbg, whose every output is one block.
  static void Compress(uint32_t state[8], const uint8_t* blocks,
                       size_t nblocks, bool accel);

 private:
  uint32_t h_[8];
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
  // Latched per object at Reset() so one hash never mixes paths.
  bool accel_ = false;
};

}  // namespace steghide::crypto

#endif  // STEGHIDE_CRYPTO_SHA256_H_
