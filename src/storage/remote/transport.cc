#include "storage/remote/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "storage/remote/wire.h"

namespace steghide::storage::remote {

// ---------------------------------------------------------------------------
// SocketTransport

SocketTransport::~SocketTransport() {
  int fd = fd_.load(std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
}

Status SocketTransport::MakePair(std::unique_ptr<SocketTransport>* first,
                                 std::unique_ptr<SocketTransport>* second) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IoError(std::string("socketpair: ") +
                           std::strerror(errno));
  }
  *first = std::make_unique<SocketTransport>(fds[0]);
  *second = std::make_unique<SocketTransport>(fds[1]);
  return Status::OK();
}

void SocketTransport::Close() {
  int fd = fd_.load(std::memory_order_relaxed);
  // shutdown (not close) so a thread blocked in poll/recv on this fd
  // wakes with EOF instead of racing a number reuse.
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

Status SocketTransport::Io(bool is_send, uint8_t* rbuf, const uint8_t* sbuf,
                           size_t n, double deadline_ms) {
  using Clock = std::chrono::steady_clock;
  const bool bounded = deadline_ms > 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             bounded ? deadline_ms : 0.0));
  size_t done = 0;
  while (done < n) {
    const int fd = fd_.load(std::memory_order_relaxed);
    if (fd < 0) return Status::IoError("remote: transport closed");

    int timeout = -1;
    if (bounded) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        return Status::DeadlineExceeded(
            is_send ? "remote: send deadline exceeded"
                    : "remote: recv deadline exceeded");
      }
      timeout = static_cast<int>(std::min<int64_t>(left.count() + 1,
                                                   60 * 1000));
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = is_send ? POLLOUT : POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, timeout);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("remote: poll: ") +
                             std::strerror(errno));
    }
    if (pr == 0) continue;  // re-check the deadline at the top

    ssize_t k;
    if (is_send) {
      k = ::send(fd, sbuf + done, n - done, MSG_NOSIGNAL);
    } else {
      k = ::recv(fd, rbuf + done, n - done, 0);
    }
    if (k < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IoError(std::string(is_send ? "remote: send: "
                                                 : "remote: recv: ") +
                             std::strerror(errno));
    }
    if (k == 0) {
      // EOF: recv on a closed peer, or poll woke after shutdown().
      return Status::IoError("remote: connection closed by peer");
    }
    done += static_cast<size_t>(k);
  }
  return Status::OK();
}

Status SocketTransport::Send(const uint8_t* data, size_t n,
                             double deadline_ms) {
  return Io(/*is_send=*/true, nullptr, data, n, deadline_ms);
}

Status SocketTransport::Recv(uint8_t* out, size_t n, double deadline_ms) {
  return Io(/*is_send=*/false, out, nullptr, n, deadline_ms);
}

// ---------------------------------------------------------------------------
// TransportFaultController

namespace {

bool FrameDirectionMatches(FaultSpec::OpFilter filter, uint8_t frame_type) {
  switch (filter) {
    case FaultSpec::OpFilter::kAny:
      return true;
    case FaultSpec::OpFilter::kRead:
      return frame_type == static_cast<uint8_t>(FrameType::kRead);
    case FaultSpec::OpFilter::kWrite:
      return frame_type == static_cast<uint8_t>(FrameType::kWrite);
  }
  return false;
}

bool IsTransportKind(FaultSpec::Kind kind) {
  return kind == FaultSpec::Kind::kPartition ||
         kind == FaultSpec::Kind::kDelayRpc ||
         kind == FaultSpec::Kind::kDropConnection;
}

}  // namespace

/// Per-connection decorator enforcing the controller's schedule. The
/// client issuer drives Send/Recv; Close and CloseInner may arrive from
/// the controller or endpoint threads (SocketTransport::Close is a
/// thread-safe shutdown).
class FaultyTransport : public Transport {
 public:
  FaultyTransport(TransportFaultController* controller,
                  std::unique_ptr<Transport> inner,
                  TransportFaultController::Side side)
      : controller_(controller), inner_(std::move(inner)), side_(side) {
    controller_->Register(this);
  }
  ~FaultyTransport() override { controller_->Deregister(this); }

  Status Send(const uint8_t* data, size_t n, double deadline_ms) override {
    if (dropped_.load(std::memory_order_relaxed)) {
      return Status::IoError("remote: connection dropped");
    }
    if (side_ == TransportFaultController::Side::kClient) {
      bool drop = false;
      Status injected = controller_->OnClientSend(data, n, &drop);
      if (drop) {
        dropped_.store(true, std::memory_order_relaxed);
        inner_->Close();
      }
      if (!injected.ok()) return injected;
    } else {
      STEGHIDE_RETURN_IF_ERROR(controller_->CheckPartition());
    }
    // Record before the transfer: the record happens-before the peer can
    // see the frame, so with the protocol's one-outstanding alternation
    // the log order is deterministic (request, reply, request, ...) even
    // though two threads append.
    controller_->RecordDelivered(side_, data, n);
    return inner_->Send(data, n, deadline_ms);
  }

  Status Recv(uint8_t* out, size_t n, double deadline_ms) override {
    if (dropped_.load(std::memory_order_relaxed)) {
      return Status::IoError("remote: connection dropped");
    }
    STEGHIDE_RETURN_IF_ERROR(controller_->CheckPartition());
    return inner_->Recv(out, n, deadline_ms);
  }

  void Close() override { inner_->Close(); }

  /// Partition() severs live connections so a blocked Recv wakes
  /// immediately instead of waiting out its wall deadline.
  void CloseInner() { inner_->Close(); }

 private:
  TransportFaultController* controller_;
  std::unique_ptr<Transport> inner_;
  TransportFaultController::Side side_;
  std::atomic<bool> dropped_{false};
};

TransportFaultController::TransportFaultController(FaultPlan plan)
    : plan_(std::move(plan)), states_(plan_.faults.size()) {}

std::unique_ptr<Transport> TransportFaultController::Wrap(
    std::unique_ptr<Transport> inner, Side side) {
  return std::make_unique<FaultyTransport>(this, std::move(inner), side);
}

void TransportFaultController::Register(FaultyTransport* t) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.push_back(t);
}

void TransportFaultController::Deregister(FaultyTransport* t) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(std::remove(live_.begin(), live_.end(), t), live_.end());
}

void TransportFaultController::Partition() {
  std::lock_guard<std::mutex> lock(mu_);
  partitioned_ = true;
  for (FaultyTransport* t : live_) t->CloseInner();
}

void TransportFaultController::Heal() {
  std::lock_guard<std::mutex> lock(mu_);
  partitioned_ = false;
}

bool TransportFaultController::partitioned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitioned_;
}

void TransportFaultController::set_latency_fn(std::function<void(double)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_fn_ = std::move(fn);
}

void TransportFaultController::set_frame_log(std::vector<FrameRecord>* log) {
  std::lock_guard<std::mutex> lock(mu_);
  frame_log_ = log;
}

Status TransportFaultController::OnClientSend(const uint8_t* frame, size_t n,
                                              bool* drop_connection) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t index = frame_index_++;
  cells_.frames.Increment();
  const uint8_t type = n > 4 ? frame[4] : 0;

  if (partitioned_) {
    cells_.partitioned_frames.Increment();
    return Status::DeadlineExceeded("remote: link partitioned");
  }

  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    if (!IsTransportKind(spec.kind)) continue;  // block-layer spec
    if (!FrameDirectionMatches(spec.ops, type)) continue;
    SpecState& state = states_[i];
    if (!spec.Triggers(index, state.fires)) continue;
    ++state.fires;

    switch (spec.kind) {
      case FaultSpec::Kind::kPartition:
        partitioned_ = true;
        cells_.partitioned_frames.Increment();
        for (FaultyTransport* t : live_) t->CloseInner();
        return Status::DeadlineExceeded("remote: link partitioned");
      case FaultSpec::Kind::kDelayRpc:
        cells_.delayed_frames.Increment();
        if (latency_fn_) latency_fn_(spec.latency_ms);
        break;  // delivered after the delay
      case FaultSpec::Kind::kDropConnection:
        cells_.dropped_connections.Increment();
        *drop_connection = true;
        return Status::IoError("remote: connection dropped by fault");
      default:
        break;
    }
  }
  return Status::OK();
}

Status TransportFaultController::CheckPartition() {
  std::lock_guard<std::mutex> lock(mu_);
  if (partitioned_) {
    return Status::DeadlineExceeded("remote: link partitioned");
  }
  return Status::OK();
}

void TransportFaultController::RecordDelivered(Side side,
                                               const uint8_t* frame,
                                               size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frame_log_ == nullptr) return;
  FrameRecord rec;
  rec.dir = static_cast<uint8_t>(side);
  rec.type = n > 4 ? frame[4] : 0;
  rec.len = static_cast<uint32_t>(n);
  frame_log_->push_back(rec);
}

TransportFaultStats TransportFaultController::stats() const {
  return obs::ReadRows(kStatRows, cells_);
}

void TransportFaultController::RegisterMetrics(obs::Registry* registry,
                                               const std::string& prefix) {
  registration_ = obs::Registration(registry);
  obs::RegisterRows(kStatRows, cells_, prefix, &registration_);
}

}  // namespace steghide::storage::remote
