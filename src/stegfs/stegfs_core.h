#ifndef STEGHIDE_STEGFS_STEGFS_CORE_H_
#define STEGHIDE_STEGFS_STEGFS_CORE_H_

#include <map>
#include <memory>

#include "crypto/cbc.h"
#include "crypto/drbg.h"
#include "stegfs/block_codec.h"
#include "stegfs/header.h"
#include "stegfs/keys.h"
#include "storage/block_device.h"
#include "storage/thread_check.h"
#include "util/random.h"
#include "util/result.h"

namespace steghide::stegfs {

struct StegFsOptions {
  /// Seed for the core's security DRBG (IVs, randomisation). Experiments
  /// pass explicit seeds for reproducibility.
  uint64_t drbg_seed = 1;
  /// Formatting fills the volume with fast non-cryptographic randomness
  /// instead of DRBG output. A deployment would use the DRBG; the
  /// statistical properties that matter to the simulated attacker are
  /// identical, and formatting a gigabyte volume becomes ~10x faster.
  bool fast_format = true;
};

/// Shared machinery of the steganographic file system from [12] (Pang,
/// Tan, Zhou, ICDE 2003): the encrypted-scattered-block volume and the
/// header-tree hidden files. The agents in src/agent build the paper's new
/// mechanisms (update hiding, oblivious reads) on top of this.
///
/// StegFsCore performs raw block I/O through the supplied BlockDevice —
/// typically a SimBlockDevice so that every access is charged on the
/// virtual disk clock.
///
/// Thread safety: one owner thread at a time (storage/thread_check.h);
/// in a served system that is the RequestDispatcher's I/O thread, and
/// the device keeps seeing single-issuer call sequences. Each public
/// operation checks in debug builds that no other thread is inside.
/// drbg() is the core's one generator, shared by every layer above it:
/// its draws continue one stream in op order whichever thread owns the
/// core, so handing the system to another thread (setup → dispatcher)
/// changes nothing it writes.
class StegFsCore {
 public:
  /// Does not take ownership of `device`.
  StegFsCore(storage::BlockDevice* device, const StegFsOptions& options);

  storage::BlockDevice& device() { return *device_; }
  const BlockCodec& codec() const { return codec_; }
  /// The core's one generator (see the class comment).
  crypto::HashDrbg& drbg() { return drbg_; }
  uint64_t num_blocks() const { return device_->num_blocks(); }
  size_t payload_size() const { return codec_.payload_size(); }

  /// Fills every block of the volume with randomness — the "number of
  /// randomly selected blocks [that] are initially filled with random data
  /// and abandoned" step, extended (as in [12]) to the entire volume so
  /// that a hidden block and an abandoned block are indistinguishable.
  Status Format();

  /// Returns a cached CBC cipher keyed by `key` (AES-128/192/256 by
  /// length).
  Result<const crypto::CbcCipher*> CipherFor(const Bytes& key);

  // ---- Header-tree I/O ------------------------------------------------

  /// Loads the file rooted at fak.header_location. Fails with
  /// PermissionDenied when the header key does not open a valid header —
  /// deliberately the same observable outcome as "no such file".
  Result<HiddenFile> LoadFile(const FileAccessKey& fak);

  /// Writes the header block and all indirect blocks of `file` at their
  /// recorded locations (fak.header_location / file.indirect_locs) and
  /// clears the dirty flag. The caller must have sized `indirect_locs`
  /// correctly (agents allocate/release indirect blocks before flushing).
  Status StoreFile(HiddenFile& file);

  // ---- Data-block I/O -------------------------------------------------

  /// Reads logical block `logical` of `file` into `out_payload`
  /// (payload_size() bytes). For dummy files the "payload" is the raw
  /// (meaningless) data field. The one-block case of ReadFileBlockSet.
  Status ReadFileBlock(const HiddenFile& file, uint64_t logical,
                       uint8_t* out_payload);

  /// Vectored variant: reads `count` consecutive logical blocks starting
  /// at `logical`, depositing payloads at out_payloads + i *
  /// payload_size(). Issues one ReadBlocks against the device so caching
  /// and scheduling decorators see the whole request.
  Status ReadFileBlocks(const HiddenFile& file, uint64_t logical,
                        uint64_t count, uint8_t* out_payloads);

  /// Scattered vectored variant: reads the (not necessarily consecutive)
  /// logical blocks `logicals[i]`, depositing payloads at
  /// out_payloads + i * payload_size(). One ReadBlocks against the
  /// device — the miss-fill path of batched oblivious retrieval.
  Status ReadFileBlockSet(const HiddenFile& file,
                          std::span<const uint64_t> logicals,
                          uint8_t* out_payloads);

  /// Seals `payload` under the file's content key and writes it at
  /// physical block `physical`. Does not touch file.block_ptrs; the
  /// caller (the update engine) owns relocation bookkeeping.
  Status WriteDataBlockAt(const HiddenFile& file, uint64_t physical,
                          const uint8_t* payload);

  /// Reads a raw block image (IV + ciphertext) without decryption.
  Status ReadRaw(uint64_t physical, Bytes& out);
  /// Vectored raw read: block `physical[i]` lands at out.data() + i *
  /// block_size. Resizes `out`.
  Status ReadRawBatch(std::span<const uint64_t> physical, Bytes& out);
  /// Writes a raw block image.
  Status WriteRaw(uint64_t physical, const Bytes& block);

  /// Overwrites `physical` with fresh randomness (abandoned state).
  Status RandomizeBlock(uint64_t physical);

 private:
  storage::BlockDevice* device_;
  BlockCodec codec_;
  crypto::HashDrbg drbg_;
  Rng format_rng_;
  bool fast_format_;
  /// Header/indirect payload staging reused across LoadFile/StoreFile
  /// calls.
  Bytes tree_payloads_;
  /// One block image, reused by Format, WriteDataBlockAt and
  /// RandomizeBlock; each fills it whole before writing it.
  Bytes block_scratch_;
  std::map<Bytes, std::unique_ptr<crypto::CbcCipher>> cipher_cache_;
  /// Checks the one-owner rule. Compound operations (LoadFile,
  /// StoreFile, ReadFileBlockSet, ...) re-enter the public raw-I/O and
  /// cipher-cache primitives on the same thread, which it allows.
  storage::SerialCallChecker serial_check_;
};

}  // namespace steghide::stegfs

#endif  // STEGHIDE_STEGFS_STEGFS_CORE_H_
