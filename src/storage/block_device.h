#ifndef STEGHIDE_STORAGE_BLOCK_DEVICE_H_
#define STEGHIDE_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <span>

#include "util/bytes.h"
#include "util/status.h"

namespace steghide::storage {

/// Default block size used throughout the reproduction; matches the
/// paper's workload parameters (Table 2: 4 KB disk blocks).
inline constexpr size_t kDefaultBlockSize = 4096;

/// Abstract fixed-block-size random-access storage volume — the "raw
/// storage" of the paper's system model (Figure 3). Every device
/// implements one vectored read and one vectored write; a single-block
/// call is a batch of one id. Implementations:
///
///  * MemBlockDevice   — RAM-backed, for tests and simulation.
///  * FileBlockDevice  — backed by a host file.
///  * SimBlockDevice   — decorates another device with a rotational-disk
///                       timing model and a virtual clock.
///  * TraceBlockDevice — decorates another device, recording the I/O
///                       sequence an attacker monitoring the storage would
///                       observe.
///
/// Block ids are zero-based.
///
/// ## Threading contract
///
/// Raw devices and per-stream decorators (Mem/File/Sim/Trace) are NOT
/// thread-safe: calls into one device object must never overlap. The
/// supported concurrency model is **single issuer** — exactly one thread
/// drives a device at any moment. The issuing thread may change over a
/// volume's lifetime (benchmarks format on the main thread, then hand
/// the stack to a RequestDispatcher's I/O thread); only *overlap* is a
/// contract violation. FileBlockDevice and MemBlockDevice enforce this
/// in debug builds via SerialCallChecker (thread_check.h) and abort with
/// a diagnostic on concurrent entry.
///
/// The layers above keep the same rule: StegFsCore, ObliviousStore and
/// the agents have one owner thread too, checked the same way. Real
/// multi-threaded callers reach them only through
/// agent::RequestDispatcher, which funnels all user I/O through its one
/// I/O thread; that is how the multi-user serving path satisfies this
/// contract without locking.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Vectored read: block `ids[i]` lands at `out + i * block_size()`.
  /// `out` must hold ids.size() * block_size() bytes. No implementation
  /// may drop, coalesce or reorder the blocks that reach one backing
  /// device, duplicates included: the oblivious store reads each scan
  /// sweep with one call, and its probe sequence is the attacker-visible
  /// pattern. Timing, tracing and fault decorators forward one block at a
  /// time in submission order, so a batch that fails at block i has
  /// charged, recorded and faulted only the blocks before i; fan-out,
  /// retry and RPC layers move the whole call at once.
  virtual Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) = 0;

  /// Vectored write: block `ids[i]` is written from
  /// `data + i * block_size()`. Same ordering contract as ReadBlocks.
  virtual Status WriteBlocks(std::span<const uint64_t> ids,
                             const uint8_t* data) = 0;

  /// Reads block `block_id` into `out` (block_size() bytes): ReadBlocks
  /// of one id. Virtual only so a wrapper can count single-block calls
  /// apart (perfbench's TimingBlockDevice); no device overrides it.
  virtual Status ReadBlock(uint64_t block_id, uint8_t* out) {
    return ReadBlocks(std::span<const uint64_t>(&block_id, 1), out);
  }

  /// Writes block_size() bytes of `data` to block `block_id`: WriteBlocks
  /// of one id.
  virtual Status WriteBlock(uint64_t block_id, const uint8_t* data) {
    return WriteBlocks(std::span<const uint64_t>(&block_id, 1), data);
  }

  virtual uint64_t num_blocks() const = 0;
  virtual size_t block_size() const = 0;

  /// Persists buffered state, where applicable.
  virtual Status Flush() { return Status::OK(); }

  /// Convenience wrappers with bounds-checked Bytes buffers.
  Status ReadBlock(uint64_t block_id, Bytes& out);
  Status WriteBlock(uint64_t block_id, const Bytes& data);
  /// Vectored convenience: resizes `out` to ids.size() * block_size().
  Status ReadBlocks(std::span<const uint64_t> ids, Bytes& out);

 protected:
  /// Shared bounds check for implementations.
  Status CheckRange(uint64_t block_id) const;
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_BLOCK_DEVICE_H_
