#ifndef STEGHIDE_STORAGE_REMOTE_BLOCK_SERVER_H_
#define STEGHIDE_STORAGE_REMOTE_BLOCK_SERVER_H_

// Server half of the block-RPC protocol.
//
// A BlockServer answers wire.h frames against a local BlockDevice; a
// LoopbackEndpoint owns the server thread and the "listening socket" of
// the loopback deployment: clients call Connect() for a fresh
// socketpair connection, and Crash()/Restart() model the remote host
// dying and coming back with its volume intact — the scenario the
// crash/recovery suite drives.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "storage/block_device.h"
#include "storage/remote/transport.h"
#include "util/result.h"

namespace steghide::storage::remote {

struct BlockServerStats {
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t bytes_in = 0;   // request frames, header + payload
  uint64_t bytes_out = 0;  // reply frames
};

/// Frame loop over one connection. The thread calling Serve() is the
/// sole issuer into `backing` for the duration, satisfying the
/// BlockDevice threading contract without any locking below.
class BlockServer {
 public:
  /// Does not take ownership of `backing`.
  explicit BlockServer(BlockDevice* backing) : backing_(backing) {}

  /// Services requests until the peer disconnects or the transport
  /// fails. Malformed frames stop the connection (a stream protocol
  /// cannot resynchronize); backing-device errors are answered in-band
  /// as encoded Status replies and do NOT stop the loop.
  void Serve(Transport* transport);

  BlockServerStats stats() const { return obs::ReadRows(kStatRows, cells_); }
  void RegisterMetrics(obs::Registry* registry, const std::string& prefix);

 private:
  Status ServeOne(Transport* transport);

  BlockDevice* backing_;
  // Staging reused across frames. Both only grow; a frame uses their
  // first bytes, as many as it carries or reads.
  std::vector<uint8_t> payload_;  // request staging
  std::vector<uint8_t> data_;     // read-reply staging
  std::vector<uint64_t> ids_;

  /// Written by the thread calling Serve().
  struct Cells {
    obs::CounterCell connections;
    obs::CounterCell requests;
    obs::CounterCell bytes_in;
    obs::CounterCell bytes_out;
  };
  static constexpr obs::StatRow<Cells, BlockServerStats> kStatRows[] = {
      {"connections", &Cells::connections, &BlockServerStats::connections},
      {"requests", &Cells::requests, &BlockServerStats::requests},
      {"bytes_in", &Cells::bytes_in, &BlockServerStats::bytes_in},
      {"bytes_out", &Cells::bytes_out, &BlockServerStats::bytes_out},
  };
  Cells cells_;
  obs::Registration registration_;

  friend class LoopbackEndpoint;
};

/// In-process stand-in for "a block server on another host": one server
/// thread accepting successive loopback connections to a BlockServer.
///
/// Connect()/Crash()/Restart() are thread-safe. The backing device is
/// only ever touched from the endpoint's server thread.
class LoopbackEndpoint {
 public:
  /// Does not take ownership of `backing`. The server thread starts
  /// immediately.
  explicit LoopbackEndpoint(BlockDevice* backing);
  ~LoopbackEndpoint();

  /// Client end of a fresh connection. Fails with kFailedPrecondition
  /// while the server is crashed.
  Result<std::unique_ptr<Transport>> Connect();

  /// Decorates the server end of every future connection (e.g. with the
  /// TransportFaultController's server-side wrapper, so both directions
  /// of the frame stream hit the fault schedule and the frame log).
  /// Thread-safe, but meant to be installed before the first Connect().
  void set_transport_wrapper(
      std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)>
          fn);

  /// The remote host dies: the live connection is severed mid-whatever
  /// it was doing and Connect() refuses until Restart(). The backing
  /// volume keeps its durable state (what a machine reboot preserves).
  void Crash();
  void Restart();
  bool crashed() const;

  BlockServer& server() { return server_; }

 private:
  void ServerLoop();

  BlockServer server_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)>
      wrap_fn_;
  std::deque<std::unique_ptr<Transport>> pending_;
  Transport* live_ = nullptr;  // connection currently in Serve()
  bool crashed_ = false;
  bool shutdown_ = false;
  std::thread thread_;
};

}  // namespace steghide::storage::remote

#endif  // STEGHIDE_STORAGE_REMOTE_BLOCK_SERVER_H_
