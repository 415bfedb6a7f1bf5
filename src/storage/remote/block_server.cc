#include "storage/remote/block_server.h"

#include <span>
#include <vector>

#include "storage/remote/wire.h"

namespace steghide::storage::remote {

// ---------------------------------------------------------------------------
// BlockServer

void BlockServer::Serve(Transport* transport) {
  cells_.connections.Increment();
  while (ServeOne(transport).ok()) {
  }
}

Status BlockServer::ServeOne(Transport* transport) {
  // No deadline on the server side: an idle connection just waits, and
  // a dead client surfaces as EOF when its end of the pair closes.
  uint8_t hdr[kFrameHeaderSize];
  STEGHIDE_RETURN_IF_ERROR(transport->Recv(hdr, kFrameHeaderSize, 0.0));
  FrameHeader h;
  STEGHIDE_RETURN_IF_ERROR(DecodeFrameHeader(hdr, &h));
  // The staging buffers only grow: a frame uses their first bytes, which
  // Recv or ReadBlocks overwrite, so nothing is zeroed per frame.
  if (payload_.size() < h.payload_len) payload_.resize(h.payload_len);
  if (h.payload_len != 0) {
    STEGHIDE_RETURN_IF_ERROR(
        transport->Recv(payload_.data(), h.payload_len, 0.0));
  }
  cells_.requests.Increment();
  cells_.bytes_in.Add(kFrameHeaderSize + h.payload_len);

  const size_t bs = backing_->block_size();
  const std::span<const uint8_t> payload(payload_.data(), h.payload_len);
  std::vector<uint8_t> reply;
  switch (h.type) {
    case FrameType::kHello:
      reply = BuildHelloReply(h.request_id, backing_->num_blocks(),
                              static_cast<uint32_t>(bs));
      break;
    case FrameType::kRead: {
      STEGHIDE_RETURN_IF_ERROR(
          ParseIds(payload, bs, /*with_data=*/false, &ids_, nullptr));
      const size_t data_len = ids_.size() * bs;
      if (data_.size() < data_len) data_.resize(data_len);
      // Backing-device errors travel in-band: the connection stays up,
      // the client's Status comes out of the reply.
      Status op = backing_->ReadBlocks(std::span<const uint64_t>(ids_),
                                       data_.data());
      reply = BuildReply(h.request_id, op, op.ok() ? data_.data() : nullptr,
                         op.ok() ? data_len : 0);
      break;
    }
    case FrameType::kWrite: {
      const uint8_t* wdata = nullptr;
      STEGHIDE_RETURN_IF_ERROR(
          ParseIds(payload, bs, /*with_data=*/true, &ids_, &wdata));
      Status op = backing_->WriteBlocks(std::span<const uint64_t>(ids_),
                                        wdata);
      reply = BuildReply(h.request_id, op);
      break;
    }
    case FrameType::kFlush:
      reply = BuildReply(h.request_id, backing_->Flush());
      break;
    case FrameType::kHelloReply:
    case FrameType::kReply:
      return Status::Corruption("remote: reply frame sent to server");
  }
  cells_.bytes_out.Add(reply.size());
  return transport->Send(reply.data(), reply.size(), 0.0);
}

void BlockServer::RegisterMetrics(obs::Registry* registry,
                                  const std::string& prefix) {
  registration_ = obs::Registration(registry);
  obs::RegisterRows(kStatRows, cells_, prefix, &registration_);
}

// ---------------------------------------------------------------------------
// LoopbackEndpoint

LoopbackEndpoint::LoopbackEndpoint(BlockDevice* backing) : server_(backing) {
  thread_ = std::thread(&LoopbackEndpoint::ServerLoop, this);
}

LoopbackEndpoint::~LoopbackEndpoint() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    if (live_ != nullptr) live_->Close();
    pending_.clear();
  }
  cv_.notify_all();
  thread_.join();
}

Result<std::unique_ptr<Transport>> LoopbackEndpoint::Connect() {
  std::unique_ptr<SocketTransport> client_end;
  std::unique_ptr<SocketTransport> server_end;
  STEGHIDE_RETURN_IF_ERROR(SocketTransport::MakePair(&client_end,
                                                     &server_end));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("remote: endpoint shut down");
    }
    if (crashed_) {
      return Status::FailedPrecondition("remote: server crashed");
    }
    std::unique_ptr<Transport> server_t = std::move(server_end);
    if (wrap_fn_) server_t = wrap_fn_(std::move(server_t));
    pending_.push_back(std::move(server_t));
  }
  cv_.notify_all();
  return std::unique_ptr<Transport>(std::move(client_end));
}

void LoopbackEndpoint::set_transport_wrapper(
    std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)>
        fn) {
  std::lock_guard<std::mutex> lock(mu_);
  wrap_fn_ = std::move(fn);
}

void LoopbackEndpoint::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
  // Sever the live connection mid-op and refuse the queue: in-flight
  // RPCs fail over on the client, exactly like a host losing power.
  if (live_ != nullptr) live_->Close();
  pending_.clear();
}

void LoopbackEndpoint::Restart() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_ = false;
  }
  cv_.notify_all();
}

bool LoopbackEndpoint::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

void LoopbackEndpoint::ServerLoop() {
  while (true) {
    std::unique_ptr<Transport> conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return shutdown_ || (!crashed_ && !pending_.empty());
      });
      if (shutdown_) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
      live_ = conn.get();
    }
    server_.Serve(conn.get());
    {
      std::lock_guard<std::mutex> lock(mu_);
      live_ = nullptr;
    }
  }
}

}  // namespace steghide::storage::remote
