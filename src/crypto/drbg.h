#ifndef STEGHIDE_CRYPTO_DRBG_H_
#define STEGHIDE_CRYPTO_DRBG_H_

#include <cstdint>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace steghide::crypto {

/// Deterministic pseudo-random generator built from SHA-256, mirroring the
/// paper's construction (Section 6.1: "the pseudo-random number generator
/// is constructed from SHA256"). Structure follows the Hash_DRBG outline of
/// NIST SP 800-90A: a secret state V = SHA-256("steghide-drbg-init" ‖
/// seed) is hashed with a counter, and output block i is
/// SHA-256(V ‖ BE64(i)). That 40-byte message pads to exactly one
/// 64-byte block, so each output block costs one compression, which
/// Generate writes straight into its output.
///
/// Security-relevant randomness in the reproduction — IVs, target-block
/// selection in the update engine, dummy-read choices, shuffle tags — is
/// drawn from this generator. Workload-level randomness uses util::Rng.
///
/// StegFsCore and ObliviousStore each own one generator, and every layer
/// above them draws from it, so a component's draws form one stream in
/// the order its operations are issued — whichever thread issues them.
///
/// The generator latches the SHA-256 implementation (hardware or scalar)
/// at construction, as Sha256 does at Reset(); both give the same stream.
///
/// Thread safety: none of its own. A generator is driven by its owner's
/// one thread (storage/thread_check.h), whose serial-call checker covers
/// every draw.
class HashDrbg {
 public:
  /// Seeds from arbitrary bytes. An empty seed is permitted (fixed state);
  /// tests use it for reproducibility.
  explicit HashDrbg(const Bytes& seed);
  explicit HashDrbg(uint64_t seed);

  /// Fills `out` with `n` pseudo-random bytes.
  void Generate(uint8_t* out, size_t n);
  Bytes Generate(size_t n);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound), bound > 0, rejection-sampled.
  uint64_t Uniform(uint64_t bound);

 private:
  /// Writes output block `counter_` to `out` (kDigestSize bytes) and
  /// advances the counter.
  void NextBlock(uint8_t* out);

  /// V ‖ BE64(counter) with its SHA-256 padding: one message block, whose
  /// only changing bytes are the counter's.
  uint8_t message_[Sha256::kBlockSize] = {};
  Sha256::Digest block_{};    // current output block, for partial draws
  size_t block_offset_ = 0;   // consumed bytes of block_
  uint64_t counter_ = 0;
  bool accel_ = false;
};

}  // namespace steghide::crypto

#endif  // STEGHIDE_CRYPTO_DRBG_H_
