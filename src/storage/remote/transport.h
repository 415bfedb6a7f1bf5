#ifndef STEGHIDE_STORAGE_REMOTE_TRANSPORT_H_
#define STEGHIDE_STORAGE_REMOTE_TRANSPORT_H_

// Byte-stream transport under the block-RPC protocol, plus the
// transport-layer half of the fault-injection story.
//
// SocketTransport wraps one end of a socketpair(AF_UNIX, SOCK_STREAM):
// the loopback stand-in for a TCP connection that keeps every protocol
// property (stream framing, EOF on close, blocking semantics,
// poll-based deadlines) without touching the network.
//
// TransportFaultController scripts kPartition/kDelayRpc/kDropConnection
// FaultSpecs against the RPC *frame* stream the way
// FaultInjectionBlockDevice scripts block faults against the op stream:
// triggers consume a per-frame index and are data-independent by
// construction. The controller outlives individual connections, so a
// fault schedule spans reconnects, and it keeps an optional
// (direction, type, length) frame log that the distinguisher suite
// compares across content-differing twin runs.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "storage/fault_device.h"
#include "util/result.h"
#include "util/status.h"

namespace steghide::storage::remote {

class FaultyTransport;

/// Blocking byte-stream endpoint. Send/Recv transfer exactly `n` bytes
/// or fail; `deadline_ms` bounds the whole transfer in wall-clock
/// milliseconds (0 = no deadline) and expiry surfaces as
/// kDeadlineExceeded. Send/Recv follow the single-issuer contract per
/// direction; Close() is thread-safe and wakes a blocked peer call.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual Status Send(const uint8_t* data, size_t n, double deadline_ms) = 0;
  virtual Status Recv(uint8_t* out, size_t n, double deadline_ms) = 0;
  virtual void Close() = 0;
};

/// Transport over a connected SOCK_STREAM file descriptor (owned).
class SocketTransport : public Transport {
 public:
  explicit SocketTransport(int fd) : fd_(fd) {}
  ~SocketTransport() override;

  /// A connected AF_UNIX stream pair — the loopback "network".
  static Status MakePair(std::unique_ptr<SocketTransport>* first,
                         std::unique_ptr<SocketTransport>* second);

  Status Send(const uint8_t* data, size_t n, double deadline_ms) override;
  Status Recv(uint8_t* out, size_t n, double deadline_ms) override;
  /// shutdown(2)s the socket (both directions): any blocked or later
  /// Send/Recv on either end fails promptly. The fd itself is closed in
  /// the destructor, so no fd-reuse race with a concurrent call.
  void Close() override;

 private:
  Status Io(bool is_send, uint8_t* rbuf, const uint8_t* sbuf, size_t n,
            double deadline_ms);

  std::atomic<int> fd_{-1};
};

/// One delivered frame, as the "network" saw it. dir 0 = client→server
/// (requests), 1 = server→client (replies).
struct FrameRecord {
  uint8_t dir = 0;
  uint8_t type = 0;  // FrameType byte
  uint32_t len = 0;  // header + payload
  bool operator==(const FrameRecord&) const = default;
};

struct TransportFaultStats {
  uint64_t frames = 0;           // frames that reached the controller
  uint64_t partitioned_frames = 0;
  uint64_t delayed_frames = 0;
  uint64_t dropped_connections = 0;
};

/// Scripts transport-kind FaultSpecs against the frame stream and
/// wraps per-connection transports with the decorator that enforces
/// them. Block-layer spec kinds in the same plan are ignored here (and
/// transport kinds are ignored by FaultInjectionBlockDevice), so one
/// FaultPlan can script a replica end to end. Fault state, the frame
/// index, and the frame log persist across reconnects.
///
/// Thread-safe: the client issuer, the server thread, and a bench
/// thread calling Partition()/Heal() may race.
class TransportFaultController {
 public:
  enum class Side : uint8_t { kClient = 0, kServer = 1 };

  explicit TransportFaultController(FaultPlan plan = {});

  /// Decorates one end of a fresh connection. Fault evaluation runs on
  /// client-side sends (the per-frame trigger stream); a partition
  /// fails traffic on both sides. Either side records frames committed
  /// to the wire (post fault evaluation, pre transfer — so a record
  /// happens-before the peer can react, making log order deterministic)
  /// into the frame log. The controller must outlive the wrapper.
  std::unique_ptr<Transport> Wrap(std::unique_ptr<Transport> inner,
                                  Side side = Side::kClient);

  /// Manual partition latch, same effect as a kPartition spec firing:
  /// every frame on a wrapped transport fails fast with
  /// kDeadlineExceeded (simulating a black-holed link without waiting
  /// out real timeouts) until Heal().
  void Partition();
  void Heal();
  bool partitioned() const;

  /// Sink for kDelayRpc charges (typically the replica sim clock).
  void set_latency_fn(std::function<void(double)> fn);
  /// Delivered-frame log for the RPC-stream distinguisher; unset = off.
  /// The log must outlive the controller's wrappers.
  void set_frame_log(std::vector<FrameRecord>* log);

  TransportFaultStats stats() const;
  void RegisterMetrics(obs::Registry* registry, const std::string& prefix);

 private:
  friend class FaultyTransport;

  struct SpecState {
    uint64_t fires = 0;
  };

  /// Client-side pre-send hook: consumes a frame index, evaluates the
  /// plan. On injection returns the error the wrapper must surface;
  /// `drop_connection` asks the wrapper to close its inner transport.
  Status OnClientSend(const uint8_t* frame, size_t n, bool* drop_connection);
  /// Both sides: partition check for the non-triggering paths.
  Status CheckPartition();
  void RecordDelivered(Side side, const uint8_t* frame, size_t n);
  /// Live-wrapper registry, so Partition() can sever blocked calls.
  void Register(FaultyTransport* t);
  void Deregister(FaultyTransport* t);

  mutable std::mutex mu_;
  FaultPlan plan_;
  std::vector<SpecState> states_;
  uint64_t frame_index_ = 0;
  bool partitioned_ = false;
  std::function<void(double)> latency_fn_;
  std::vector<FrameRecord>* frame_log_ = nullptr;
  std::vector<FaultyTransport*> live_;

  /// Written under mu_ by the thread that sends a client frame.
  struct Cells {
    obs::CounterCell frames;
    obs::CounterCell partitioned_frames;
    obs::CounterCell delayed_frames;
    obs::CounterCell dropped_connections;
  };
  static constexpr obs::StatRow<Cells, TransportFaultStats> kStatRows[] = {
      {"frames", &Cells::frames, &TransportFaultStats::frames},
      {"partitioned_frames", &Cells::partitioned_frames,
       &TransportFaultStats::partitioned_frames},
      {"delayed_frames", &Cells::delayed_frames,
       &TransportFaultStats::delayed_frames},
      {"dropped_connections", &Cells::dropped_connections,
       &TransportFaultStats::dropped_connections},
  };
  Cells cells_;
  obs::Registration registration_;
};

}  // namespace steghide::storage::remote

#endif  // STEGHIDE_STORAGE_REMOTE_TRANSPORT_H_
