#ifndef STEGHIDE_CRYPTO_DRBG_STREAMS_H_
#define STEGHIDE_CRYPTO_DRBG_STREAMS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "crypto/drbg.h"
#include "util/bytes.h"

namespace steghide::crypto {

/// A family of per-thread HashDrbg streams over one root seed — the fix
/// for the crypto-path serialization point where every IV and decoy draw
/// from concurrent callers contended on a single stream mutex.
///
/// Determinism model:
///  - The first thread to draw is handed the *root* stream itself, so a
///    single-threaded caller consumes exactly the byte stream of a plain
///    HashDrbg(seed) — trace-pinned suites and golden experiments see no
///    change.
///  - Every later thread gets an independent stream forked from the root
///    *seed state* by arrival index (HashDrbg::ForkSeed with the
///    "steghide-thread-stream" domain): same seed + same stream index ⇒
///    same stream, bytewise, regardless of what any other stream drew.
///    Which OS thread lands on which index is scheduling-dependent, which
///    is inherent to concurrent draws and exactly the freedom the
///    trace-equivalence suites already grant to draw interleaving.
///
/// Thread safety: ForThread() is safe from any thread; after the first
/// call on a given thread it is a thread-local lookup with no shared
/// state touched. Each stream is itself a HashDrbg with its own
/// (uncontended) lock.
class DrbgStreams {
 public:
  explicit DrbgStreams(const Bytes& seed);
  explicit DrbgStreams(uint64_t seed);

  DrbgStreams(const DrbgStreams&) = delete;
  DrbgStreams& operator=(const DrbgStreams&) = delete;

  /// The calling thread's stream, created on first use.
  HashDrbg& ForThread();

  /// The root stream (arrival index 0), regardless of calling thread.
  /// Draws on it interleave with the first-arriving thread's.
  HashDrbg& root() { return root_; }

  /// Number of distinct streams handed out so far.
  size_t stream_count() const;

 private:
  HashDrbg* Acquire();

  /// Process-unique id keying the per-thread cache; never reused, so a
  /// stale cache entry for a destroyed family can never be looked up.
  const uint64_t family_id_;
  HashDrbg root_;
  mutable std::mutex mu_;
  bool root_taken_ = false;
  std::deque<std::unique_ptr<HashDrbg>> forks_;
};

}  // namespace steghide::crypto

#endif  // STEGHIDE_CRYPTO_DRBG_STREAMS_H_
