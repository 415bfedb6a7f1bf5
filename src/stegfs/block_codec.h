#ifndef STEGHIDE_STEGFS_BLOCK_CODEC_H_
#define STEGHIDE_STEGFS_BLOCK_CODEC_H_

#include <span>

#include "crypto/cbc.h"
#include "crypto/drbg.h"
#include "obs/metrics.h"
#include "stegfs/format.h"
#include "util/bytes.h"
#include "util/status.h"

namespace steghide::stegfs {

/// Seals and opens on-disk blocks in the IV ∥ E_key(data field) format of
/// Figure 5. Stateless except for the block size.
///
/// The *Blocks/*Scatter entry points process whole batches of
/// independently-IV'd blocks through CbcCipher's multi-chain kernels —
/// one call per vectored device batch instead of one AES setup per
/// block — and are
/// bytewise equivalent to the corresponding sequence of single-block
/// calls: batched IV draws consume the DRBG stream in exactly the same
/// order (the Hash_DRBG output stream is position-independent), so
/// batching can never change the attacker-visible trace.
class BlockCodec {
 public:
  explicit BlockCodec(size_t block_size) : block_size_(block_size) {}

  size_t block_size() const { return block_size_; }
  size_t payload_size() const { return PayloadSize(block_size_); }

  /// Encrypts `payload` (payload_size() bytes) under `cipher` with a fresh
  /// random IV drawn from `drbg`, producing a full block image in
  /// `out_block` (block_size() bytes).
  Status Seal(const crypto::CbcCipher& cipher, crypto::HashDrbg& drbg,
              const uint8_t* payload, uint8_t* out_block) const;

  /// Decrypts a full block image into `out_payload` (payload_size()
  /// bytes).
  Status Open(const crypto::CbcCipher& cipher, const uint8_t* block,
              uint8_t* out_payload) const;

  /// Seals `n` consecutive payloads at `payloads` into `n` consecutive
  /// block images at `out_blocks`. Equivalent to n Seal calls.
  Status SealBlocks(const crypto::CbcCipher& cipher, crypto::HashDrbg& drbg,
                    const uint8_t* payloads, size_t n,
                    uint8_t* out_blocks) const;

  /// Scattered seal: payloads[i] -> out_blocks[i].
  Status SealScatter(const crypto::CbcCipher& cipher, crypto::HashDrbg& drbg,
                     std::span<const uint8_t* const> payloads,
                     std::span<uint8_t* const> out_blocks) const;

  /// Opens `n` consecutive block images at `blocks` into `n` consecutive
  /// payloads at `out_payloads`. Equivalent to n Open calls.
  Status OpenBlocks(const crypto::CbcCipher& cipher, const uint8_t* blocks,
                    size_t n, uint8_t* out_payloads) const;

  /// Scattered open: blocks[i] -> out_payloads[i]. This is the shape of a
  /// level-scan pass: the real probes sit interleaved with decoys across
  /// per-pass buffers.
  Status OpenScatter(const crypto::CbcCipher& cipher,
                     std::span<const uint8_t* const> blocks,
                     std::span<uint8_t* const> out_payloads) const;

  /// Dummy update on `n` consecutive block images: decrypts each, draws
  /// a fresh IV, and re-encrypts in place, leaving the plaintext
  /// untouched. Every ciphertext byte changes, exactly like a real
  /// content update. `scratch` (when given) holds the transient plaintext
  /// between open and re-seal and is resized as needed — callers on the
  /// dummy-update hot path keep one across calls so a refresh allocates
  /// nothing.
  Status RefreshBlocks(const crypto::CbcCipher& cipher,
                       crypto::HashDrbg& drbg, uint8_t* blocks, size_t n,
                       Bytes* scratch = nullptr) const;

  /// Overwrites the whole block image with fresh randomness — the state of
  /// an abandoned block, and also a valid dummy update for blocks whose
  /// plaintext is meaningless (dummy-file content).
  void Randomize(crypto::HashDrbg& drbg, uint8_t* block) const;

 private:
  size_t block_size_;
};

/// Process-wide crypto traffic instruments fed by every BlockCodec entry
/// point: "crypto.bytes" (payload bytes through AES, a refresh counts both
/// passes), "crypto.blocks", "crypto.batches" (one per API call — the
/// batching win shows as blocks/batches), plus "crypto.accel_aes" /
/// "crypto.accel_sha256" dispatch gauges (1 = hardware path active).
/// Borrow-registers into `registry`; keep the Registration alive for the
/// export window. Call once per registry: the cells are global, a second
/// registration of the same names would collide.
obs::Registration RegisterCryptoMetrics(obs::Registry* registry);

/// Snapshot of the global crypto counters (tests/benches).
struct CryptoTrafficSnapshot {
  uint64_t bytes = 0;
  uint64_t blocks = 0;
  uint64_t batches = 0;
};
CryptoTrafficSnapshot GlobalCryptoTraffic();

}  // namespace steghide::stegfs

#endif  // STEGHIDE_STEGFS_BLOCK_CODEC_H_
