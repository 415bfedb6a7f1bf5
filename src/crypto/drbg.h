#ifndef STEGHIDE_CRYPTO_DRBG_H_
#define STEGHIDE_CRYPTO_DRBG_H_

#include <cstdint>
#include <mutex>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace steghide::crypto {

/// Deterministic pseudo-random generator built from SHA-256, mirroring the
/// paper's construction (Section 6.1: "the pseudo-random number generator
/// is constructed from SHA256"). Structure follows the Hash_DRBG outline of
/// NIST SP 800-90A: a secret state V is hashed with a counter to produce
/// output.
///
/// Security-relevant randomness in the reproduction — IVs, target-block
/// selection in the update engine, dummy-read choices, shuffle tags — is
/// drawn from this generator. Workload-level randomness uses util::Rng.
///
/// StegFsCore and ObliviousStore each own one generator, and every layer
/// above them draws from it, so a component's draws form one stream in
/// the order its operations are issued — whichever thread issues them.
///
/// Thread safety: every draw is internally serialized, so a generator
/// shared between layers (StegFsCore's DRBG feeds the update engine, the
/// session layer, and the oblivious read path) stays well-defined when
/// agent sessions run on real threads. Each draw is atomic; the
/// *interleaving* of draws across threads is scheduling-dependent, which
/// is inherent to concurrent operation — deterministic tests pin the
/// issue order instead.
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
  void Ratchet();
  void GenerateLocked(uint8_t* out, size_t n);
  uint64_t NextUint64Locked();

  std::mutex mu_;
  Sha256::Digest v_;          // secret state
  Sha256::Digest block_;      // current output block
  size_t block_offset_ = 0;   // consumed bytes of block_
  uint64_t counter_ = 0;
};

}  // namespace steghide::crypto

#endif  // STEGHIDE_CRYPTO_DRBG_H_
