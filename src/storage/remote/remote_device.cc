#include "storage/remote/remote_device.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace steghide::storage::remote {

Result<std::unique_ptr<RemoteBlockDevice>> RemoteBlockDevice::Create(
    ConnectFn connect, RemoteDeviceOptions options) {
  std::unique_ptr<RemoteBlockDevice> device(
      new RemoteBlockDevice(std::move(connect), options));
  // The initial connection gets the same bounded budget an RPC gets; no
  // backoff sink exists yet, so attempts are back-to-back.
  const int attempts = std::max(1, options.retry.max_attempts);
  Status last = Status::IoError("remote: connect never attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    last = device->Connect();
    if (last.ok()) {
      return Result<std::unique_ptr<RemoteBlockDevice>>(std::move(device));
    }
  }
  return last;
}

Status RemoteBlockDevice::Connect() {
  transport_.reset();
  Result<std::unique_ptr<Transport>> conn = connect_();
  if (!conn.ok()) {
    cells_.connect_failures.Increment();
    return conn.status();
  }
  transport_ = std::move(conn).value();
  // Hello handshake: fetches (and on reconnect, re-verifies) geometry,
  // and doubles as a liveness probe for the fresh connection.
  std::vector<uint8_t> hello = BuildHello(next_request_id_++);
  Status server_status;
  Status transfer = Exchange(hello, nullptr, 0, &server_status);
  if (!transfer.ok()) {
    if (transfer.IsDeadlineExceeded()) cells_.timeouts.Increment();
    transport_.reset();
    cells_.connect_failures.Increment();
    return transfer;
  }
  if (connected_once_) {
    cells_.reconnects.Increment();
  } else {
    connected_once_ = true;
  }
  return Status::OK();
}

Status RemoteBlockDevice::Exchange(const std::vector<uint8_t>& frame,
                                   uint8_t* read_out, size_t read_len,
                                   Status* server_status) {
  const double deadline = options_.rpc_deadline_ms;
  const uint64_t want_id = GetU64(frame.data() + 8);
  STEGHIDE_RETURN_IF_ERROR(
      transport_->Send(frame.data(), frame.size(), deadline));
  cells_.bytes_sent.Add(frame.size());

  uint8_t hdr[kFrameHeaderSize];
  STEGHIDE_RETURN_IF_ERROR(transport_->Recv(hdr, kFrameHeaderSize, deadline));
  FrameHeader h;
  STEGHIDE_RETURN_IF_ERROR(DecodeFrameHeader(hdr, &h));
  reply_payload_.resize(h.payload_len);
  if (h.payload_len != 0) {
    STEGHIDE_RETURN_IF_ERROR(
        transport_->Recv(reply_payload_.data(), h.payload_len, deadline));
  }
  cells_.bytes_received.Add(kFrameHeaderSize + h.payload_len);
  if (h.request_id != want_id) {
    // The protocol is one-outstanding, so a mismatch means the stream
    // lost sync — unrecoverable on this connection.
    return Status::Corruption("remote: reply request_id mismatch");
  }
  const std::span<const uint8_t> payload(reply_payload_.data(),
                                         reply_payload_.size());
  if (h.type == FrameType::kHelloReply) {
    uint64_t nb = 0;
    uint32_t bs = 0;
    STEGHIDE_RETURN_IF_ERROR(ParseHelloReply(payload, &nb, &bs));
    if (geometry_known_ && (nb != num_blocks_ || bs != block_size_)) {
      return Status::Internal("remote: served geometry changed on reconnect");
    }
    num_blocks_ = nb;
    block_size_ = bs;
    geometry_known_ = true;
    *server_status = Status::OK();
    return Status::OK();
  }
  if (h.type != FrameType::kReply) {
    return Status::Corruption("remote: unexpected reply frame type");
  }
  Status in_band;
  std::span<const uint8_t> data;
  STEGHIDE_RETURN_IF_ERROR(ParseReply(payload, &in_band, &data));
  if (in_band.ok() && read_out != nullptr) {
    if (data.size() != read_len) {
      return Status::Corruption("remote: read reply payload size mismatch");
    }
    std::memcpy(read_out, data.data(), read_len);
  }
  *server_status = in_band;
  return Status::OK();
}

Status RemoteBlockDevice::Rpc(FrameType type, std::span<const uint64_t> ids,
                              const uint8_t* write_data, uint8_t* read_out) {
  const char* span_name = type == FrameType::kRead    ? "remote.read"
                          : type == FrameType::kWrite ? "remote.write"
                                                      : "remote.flush";
  obs::ScopedSpan span(trace_, span_name, track_,
                       {{"blocks", static_cast<int64_t>(ids.size())}});
  cells_.rpcs.Increment();

  const int attempts = std::max(1, options_.retry.max_attempts);
  Status last = Status::IoError("remote: rpc never attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      cells_.rpc_retries.Increment();
      if (backoff_fn_) backoff_fn_(options_.retry.BackoffFor(attempt - 1));
    }
    if (transport_ == nullptr) {
      Status c = Connect();
      if (!c.ok()) {
        last = c;
        continue;
      }
    }
    std::vector<uint8_t> frame;
    const uint64_t request_id = next_request_id_++;
    switch (type) {
      case FrameType::kRead:
        frame = BuildRead(request_id, ids);
        break;
      case FrameType::kWrite:
        frame = BuildWrite(request_id, ids, write_data, block_size_);
        break;
      default:
        frame = BuildFlush(request_id);
        break;
    }
    Status server_status;
    Status transfer = Exchange(frame, read_out, ids.size() * block_size_,
                               &server_status);
    if (transfer.ok()) {
      // In-band errors (the remote volume failing an op) are the
      // caller's to handle; the connection is still good.
      if (span.active()) {
        span.AddArg("attempts", attempt + 1);
        span.AddArg("ok", server_status.ok() ? 1 : 0);
      }
      return server_status;
    }
    // Transport failure: the connection is suspect. Drop it and
    // re-drive — safe because block RPCs are idempotent.
    if (transfer.IsDeadlineExceeded()) cells_.timeouts.Increment();
    transport_.reset();
    last = transfer;
  }
  if (span.active()) {
    span.AddArg("attempts", attempts);
    span.AddArg("ok", 0);
  }
  return last;
}

Status RemoteBlockDevice::ReadBlocks(std::span<const uint64_t> ids,
                                     uint8_t* out) {
  for (uint64_t id : ids) STEGHIDE_RETURN_IF_ERROR(CheckRange(id));
  return Rpc(FrameType::kRead, ids, nullptr, out);
}

Status RemoteBlockDevice::WriteBlocks(std::span<const uint64_t> ids,
                                      const uint8_t* data) {
  for (uint64_t id : ids) STEGHIDE_RETURN_IF_ERROR(CheckRange(id));
  return Rpc(FrameType::kWrite, ids, data, nullptr);
}

Status RemoteBlockDevice::Flush() {
  return Rpc(FrameType::kFlush, {}, nullptr, nullptr);
}

RemoteStats RemoteBlockDevice::stats() const {
  RemoteStats s;
  s.rpcs = cells_.rpcs.value();
  s.rpc_retries = cells_.rpc_retries.value();
  s.bytes_sent = cells_.bytes_sent.value();
  s.bytes_received = cells_.bytes_received.value();
  s.timeouts = cells_.timeouts.value();
  s.reconnects = cells_.reconnects.value();
  s.connect_failures = cells_.connect_failures.value();
  return s;
}

void RemoteBlockDevice::RegisterMetrics(obs::Registry* registry,
                                        const std::string& prefix) {
  registration_ = obs::Registration(registry);
  registration_.Counter(prefix + ".rpcs", &cells_.rpcs);
  registration_.Counter(prefix + ".rpc_retries", &cells_.rpc_retries);
  registration_.Counter(prefix + ".bytes_sent", &cells_.bytes_sent);
  registration_.Counter(prefix + ".bytes_received", &cells_.bytes_received);
  registration_.Counter(prefix + ".timeouts", &cells_.timeouts);
  registration_.Counter(prefix + ".reconnects", &cells_.reconnects);
  registration_.Counter(prefix + ".connect_failures",
                        &cells_.connect_failures);
}

}  // namespace steghide::storage::remote
