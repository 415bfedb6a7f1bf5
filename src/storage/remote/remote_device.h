#ifndef STEGHIDE_STORAGE_REMOTE_REMOTE_DEVICE_H_
#define STEGHIDE_STORAGE_REMOTE_REMOTE_DEVICE_H_

// Client half of the block-RPC protocol: a BlockDevice whose backing
// volume lives behind a Transport.
//
// Every call becomes one synchronous RPC (vectored calls stay vectored:
// one kRead/kWrite frame carries the whole batch). Each socket transfer
// runs under a wall-clock deadline, and a transport failure —
// timeout, dropped connection, partition — burns one attempt of a
// RetryPolicy-bounded reconnect-and-re-drive loop. Re-driving is safe
// for the same reason RetryingBlockDevice may retry: the BlockDevice
// contract is idempotent per call. Server-side errors (the remote
// volume returning kIoError) are NOT transport failures; they come back
// in-band and are surfaced to the caller untouched, so the replication
// and retry layers above see exactly what a local replica would give
// them.
//
// Threading: single issuer, like every other device. The reconnect
// machinery is issuer-thread state; only stats()/metrics are safe to
// read concurrently.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "storage/block_device.h"
#include "storage/remote/transport.h"
#include "storage/remote/wire.h"
#include "storage/retry_device.h"
#include "util/result.h"

namespace steghide::storage::remote {

struct RemoteDeviceOptions {
  /// Wall-clock budget for each socket send/recv of one RPC; 0 waits
  /// forever (only sane on a fault-free loopback).
  double rpc_deadline_ms = 2000.0;
  /// Reconnect-and-re-drive budget per RPC. max_attempts includes the
  /// first try; backoff is charged through the backoff hook between
  /// attempts.
  RetryPolicy retry{.max_attempts = 4, .backoff_ms = 1.0,
                    .backoff_multiplier = 2.0};
};

struct RemoteStats {
  uint64_t rpcs = 0;
  uint64_t rpc_retries = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t timeouts = 0;
  uint64_t reconnects = 0;
  uint64_t connect_failures = 0;
};

class RemoteBlockDevice : public BlockDevice {
 public:
  /// Opens a fresh transport to the server. Called for the initial
  /// connection and again on every reconnect.
  using ConnectFn =
      std::function<Result<std::unique_ptr<Transport>>(void)>;

  /// Connects eagerly and fetches the served geometry via a Hello
  /// handshake (retrying within the policy budget), so num_blocks()/
  /// block_size() are valid from construction like every local device.
  static Result<std::unique_ptr<RemoteBlockDevice>> Create(
      ConnectFn connect, RemoteDeviceOptions options = {});

  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override;
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override;
  uint64_t num_blocks() const override { return num_blocks_; }
  size_t block_size() const override { return block_size_; }
  Status Flush() override;

  /// Sink for reconnect-backoff charges (typically the replica's
  /// virtual clock), mirroring RetryingBlockDevice::set_latency_fn.
  void set_backoff_fn(std::function<void(double)> fn) {
    backoff_fn_ = std::move(fn);
  }

  /// One span per RPC on the given log (track "remote" is registered
  /// lazily on first use if `track` is not supplied).
  void set_trace(obs::TraceLog* log) {
    trace_ = log;
    track_ = log != nullptr ? log->RegisterTrack("remote") : 0;
  }
  void set_trace(obs::TraceLog* log, uint32_t track) {
    trace_ = log;
    track_ = track;
  }

  RemoteStats stats() const;
  void RegisterMetrics(obs::Registry* registry, const std::string& prefix);

  bool connected() const { return transport_ != nullptr; }

 private:
  RemoteBlockDevice(ConnectFn connect, RemoteDeviceOptions options)
      : connect_(std::move(connect)), options_(options) {}

  /// Opens a transport and runs the Hello handshake; verifies the
  /// geometry has not changed across a reconnect.
  Status Connect();
  /// One full request/response exchange over the live transport.
  /// `server_status` receives the in-band result.
  Status Exchange(const std::vector<uint8_t>& frame, uint8_t* read_out,
                  size_t read_len, Status* server_status);
  /// The RPC driver: (re)connects, exchanges, and re-drives on
  /// transport failure within the retry budget.
  Status Rpc(FrameType type, std::span<const uint64_t> ids,
             const uint8_t* write_data, uint8_t* read_out);

  ConnectFn connect_;
  RemoteDeviceOptions options_;
  std::unique_ptr<Transport> transport_;
  uint64_t num_blocks_ = 0;
  size_t block_size_ = 0;
  bool geometry_known_ = false;
  bool connected_once_ = false;
  uint64_t next_request_id_ = 1;
  std::vector<uint8_t> reply_payload_;  // reused across RPCs
  std::function<void(double)> backoff_fn_;
  obs::TraceLog* trace_ = nullptr;
  uint32_t track_ = 0;

  struct Cells {
    obs::CounterCell rpcs;
    obs::CounterCell rpc_retries;
    obs::CounterCell bytes_sent;
    obs::CounterCell bytes_received;
    obs::CounterCell timeouts;
    obs::CounterCell reconnects;
    obs::CounterCell connect_failures;
  };
  Cells cells_;
  obs::Registration registration_;
};

}  // namespace steghide::storage::remote

#endif  // STEGHIDE_STORAGE_REMOTE_REMOTE_DEVICE_H_
