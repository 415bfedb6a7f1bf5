#include "storage/volume_set.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

namespace steghide::storage {

ShardedBlockDevice::ShardedBlockDevice(std::vector<BlockDevice*> shards)
    : shards_(std::move(shards)),
      block_size_(shards_.empty() ? kDefaultBlockSize
                                  : shards_.front()->block_size()),
      shard_tracks_(shards_.size(), 0),
      split_local_(shards_.size()),
      split_pos_(shards_.size()) {
  assert(!shards_.empty());
  uint64_t min_blocks = shards_.front()->num_blocks();
  for (BlockDevice* shard : shards_) {
    assert(shard->block_size() == block_size_);
    if (shard->num_blocks() < min_blocks) min_blocks = shard->num_blocks();
  }
  num_blocks_ = min_blocks * shards_.size();
}

void ShardedBlockDevice::set_trace(obs::TraceLog* log) {
  trace_ = log;
  for (size_t k = 0; k < shards_.size(); ++k) {
    shard_tracks_[k] =
        log != nullptr ? log->RegisterTrack("io/shard" + std::to_string(k))
                       : 0;
  }
}

Status ShardedBlockDevice::ReadBlock(uint64_t block_id, uint8_t* out) {
  STEGHIDE_RETURN_IF_ERROR(CheckRange(block_id));
  const size_t shard = static_cast<size_t>(ShardOf(block_id));
  return RunOnShards([&](size_t k) {
    return k == shard ? shards_[k]->ReadBlock(LocalBlock(block_id), out)
                      : Status::OK();
  });
}

Status ShardedBlockDevice::WriteBlock(uint64_t block_id,
                                      const uint8_t* data) {
  STEGHIDE_RETURN_IF_ERROR(CheckRange(block_id));
  const size_t shard = static_cast<size_t>(ShardOf(block_id));
  return RunOnShards([&](size_t k) {
    return k == shard ? shards_[k]->WriteBlock(LocalBlock(block_id), data)
                      : Status::OK();
  });
}

Status ShardedBlockDevice::FanOut(std::span<const uint64_t> ids, uint8_t* out,
                                  const uint8_t* data) {
  const size_t bs = block_size_;
  for (size_t k = 0; k < shards_.size(); ++k) {
    split_local_[k].clear();
    split_pos_[k].clear();
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    STEGHIDE_RETURN_IF_ERROR(CheckRange(ids[i]));
    const size_t shard = static_cast<size_t>(ShardOf(ids[i]));
    split_local_[shard].push_back(LocalBlock(ids[i]));
    split_pos_[shard].push_back(i);
  }
  return RunOnShards([&](size_t k) {
    const std::vector<uint64_t>& local = split_local_[k];
    const std::vector<size_t>& pos = split_pos_[k];
    if (local.empty()) return Status::OK();
    // Stage through a contiguous buffer so the shard sees one vectored
    // call (whole-batch visibility for decorators below), then
    // scatter/gather against the caller's strided layout.
    obs::ScopedSpan span(trace_, "io.drain", shard_tracks_[k],
                         {{"reqs", static_cast<int64_t>(local.size())}});
    staging_.resize(local.size() * bs);
    if (out != nullptr) {
      STEGHIDE_RETURN_IF_ERROR(shards_[k]->ReadBlocks(local, staging_.data()));
      for (size_t i = 0; i < pos.size(); ++i) {
        std::memcpy(out + pos[i] * bs, staging_.data() + i * bs, bs);
      }
      return Status::OK();
    }
    for (size_t i = 0; i < pos.size(); ++i) {
      std::memcpy(staging_.data() + i * bs, data + pos[i] * bs, bs);
    }
    return shards_[k]->WriteBlocks(local, staging_.data());
  });
}

Status ShardedBlockDevice::ReadBlocks(std::span<const uint64_t> ids,
                                      uint8_t* out) {
  if (ids.empty()) return Status::OK();
  return FanOut(ids, out, nullptr);
}

Status ShardedBlockDevice::WriteBlocks(std::span<const uint64_t> ids,
                                       const uint8_t* data) {
  if (ids.empty()) return Status::OK();
  return FanOut(ids, nullptr, data);
}

Status ShardedBlockDevice::Flush() {
  return RunOnShards([this](size_t k) { return shards_[k]->Flush(); });
}

VolumeSet::VolumeSet(const Options& options) {
  shards_ = options.shards == 0 ? 1 : options.shards;
  replicas_ = options.replicas == 0 ? 1 : options.replicas;
  const uint64_t per_shard =
      (options.total_blocks + shards_ - 1) / shards_;
  if (options.remote) {
    tfaults_.resize(shards_ * replicas_);
    endpoints_.resize(shards_ * replicas_);
    remotes_.resize(shards_ * replicas_);
  }
  std::vector<BlockDevice*> tops;
  tops.reserve(shards_);
  for (size_t k = 0; k < shards_; ++k) {
    // Per-replica stack, bottom up: Mem -> [Fault] -> [Trace] -> Sim.
    // The fault layer sits below the trace so the per-replica attacker
    // view records exactly the ops that reached the platter; the sim
    // sits on top so failed attempts still cost virtual time upstream
    // retries can measure. A remote replica keeps that whole stack —
    // it becomes the server side behind a loopback endpoint, with the
    // endpoint's thread as its sole issuer — and contributes a
    // RemoteBlockDevice client as its top instead.
    std::vector<BlockDevice*> replica_tops;
    for (size_t r = 0; r < replicas_; ++r) {
      mems_.push_back(
          std::make_unique<MemBlockDevice>(per_shard, options.block_size));
      BlockDevice* top = mems_.back().get();
      if (options.fault_plan) {
        faults_.push_back(std::make_unique<FaultInjectionBlockDevice>(
            top, options.fault_plan(k, r)));
        top = faults_.back().get();
      }
      if (options.traced) {
        traces_.push_back(std::make_unique<TraceBlockDevice>(top));
        top = traces_.back().get();
      }
      sims_.push_back(std::make_unique<SimBlockDevice>(top, options.disk));
      if (options.fault_plan) {
        // Latency-spike charges land on this replica's spindle clock.
        DiskModel* model = &sims_.back()->model();
        faults_.back()->set_latency_fn(
            [model](double ms) { model->AdvanceClock(ms); });
      }
      top = sims_.back().get();
      if (options.remote && options.remote(k, r)) {
        top = MakeRemote(k, r, top, options);
      }
      replica_tops.push_back(top);
    }
    if (replicas_ > 1) {
      reps_.push_back(std::make_unique<ReplicatedBlockDevice>(
          std::move(replica_tops), options.replication));
      tops.push_back(reps_.back().get());
    } else {
      tops.push_back(replica_tops.front());
    }
  }
  device_ = std::make_unique<ShardedBlockDevice>(std::move(tops));
  // Shard clock = the busiest replica of the shard: mirrored writes hit
  // independent spindles, so within a shard (as across shards) the join
  // costs the slowest member, not the sum.
  device_->set_shard_clock_fn([this](size_t k) {
    double ms = 0.0;
    for (size_t r = 0; r < replicas_; ++r) {
      ms = std::max(ms, sims_[Slot(k, r)]->clock_ms());
    }
    return ms;
  });
  if (replicas_ > 1) {
    for (size_t k = 0; k < shards_; ++k) {
      ReplicatedBlockDevice* rep = reps_[k].get();
      rep->set_clock_fn([this, k] {
        double ms = 0.0;
        for (size_t r = 0; r < replicas_; ++r) {
          ms = std::max(ms, sims_[Slot(k, r)]->clock_ms());
        }
        return ms;
      });
    }
  }
}

BlockDevice* VolumeSet::MakeRemote(size_t k, size_t r, BlockDevice* backing,
                                   const Options& options) {
  const size_t slot = Slot(k, r);
  DiskModel* model = &sims_[slot]->model();

  endpoints_[slot] = std::make_unique<remote::LoopbackEndpoint>(backing);
  remote::LoopbackEndpoint* endpoint = endpoints_[slot].get();

  FaultPlan plan;
  if (options.transport_fault_plan) plan = options.transport_fault_plan(k, r);
  tfaults_[slot] =
      std::make_unique<remote::TransportFaultController>(std::move(plan));
  remote::TransportFaultController* ctrl = tfaults_[slot].get();
  // kDelayRpc charges land on the replica's spindle clock, like the
  // block-layer latency spikes.
  ctrl->set_latency_fn([model](double ms) { model->AdvanceClock(ms); });
  endpoint->set_transport_wrapper(
      [ctrl](std::unique_ptr<remote::Transport> t) {
        return ctrl->Wrap(std::move(t),
                          remote::TransportFaultController::Side::kServer);
      });

  Result<std::unique_ptr<remote::RemoteBlockDevice>> client =
      remote::RemoteBlockDevice::Create(
          [endpoint, ctrl]() -> Result<std::unique_ptr<remote::Transport>> {
            Result<std::unique_ptr<remote::Transport>> conn =
                endpoint->Connect();
            if (!conn.ok()) return conn.status();
            return ctrl->Wrap(std::move(conn).value(),
                              remote::TransportFaultController::Side::kClient);
          },
          options.remote_options);
  // The loopback endpoint is up and fault-free at construction, so the
  // handshake cannot fail short of resource exhaustion.
  assert(client.ok());
  remotes_[slot] = std::move(client).value();
  remotes_[slot]->set_backoff_fn(
      [model](double ms) { model->AdvanceClock(ms); });
  return remotes_[slot].get();
}

Status VolumeSet::ReviveAndRepair(size_t k, size_t r) {
  if (reps_.empty()) {
    return Status::FailedPrecondition("volume set is not replicated");
  }
  if (fault(k, r) != nullptr) fault(k, r)->Revive();
  if (remote_endpoint(k, r) != nullptr && remote_endpoint(k, r)->crashed()) {
    remote_endpoint(k, r)->Restart();
  }
  if (transport_fault(k, r) != nullptr &&
      transport_fault(k, r)->partitioned()) {
    transport_fault(k, r)->Heal();
  }
  // The replica may still be marked healthy if it died without any
  // traffic catching it; force the quarantine so repair has a defined
  // starting state. (A `quorum` mirror may have demoted it to lagging
  // already; StartRepair accepts that directly.)
  if (reps_[k]->replica_state(r) == ReplicaState::kHealthy) {
    reps_[k]->Quarantine(r);
  }
  return reps_[k]->StartRepair(r);
}

bool VolumeSet::repair_pending() const {
  for (const auto& rep : reps_) {
    if (rep->repair_pending()) return true;
  }
  return false;
}

Result<bool> VolumeSet::PumpRepair(uint64_t budget_blocks) {
  if (!repair_pending()) return false;
  STEGHIDE_RETURN_IF_ERROR(device_->RunOnShards([&](size_t k) {
    if (!reps_[k]->repair_pending()) return Status::OK();
    bool more = false;
    return reps_[k]->RepairStep(budget_blocks, &more);
  }));
  return repair_pending();
}

void VolumeSet::RegisterMetrics(obs::Registry* registry,
                                const std::string& prefix) {
  for (size_t k = 0; k < shards_; ++k) {
    const std::string shard_prefix = prefix + ".shard" + std::to_string(k);
    for (size_t r = 0; r < replicas_; ++r) {
      const std::string rep_prefix =
          replicas_ > 1 ? shard_prefix + ".r" + std::to_string(r)
                        : shard_prefix;
      sims_[Slot(k, r)]->RegisterMetrics(registry, rep_prefix);
      if (fault(k, r) != nullptr) {
        fault(k, r)->RegisterMetrics(registry, rep_prefix + ".fault");
      }
      if (is_remote(k, r)) {
        remote_device(k, r)->RegisterMetrics(registry,
                                             rep_prefix + ".remote");
        transport_fault(k, r)->RegisterMetrics(registry,
                                               rep_prefix + ".transport");
        remote_endpoint(k, r)->server().RegisterMetrics(
            registry, rep_prefix + ".server");
      }
    }
    if (!reps_.empty()) {
      reps_[k]->RegisterMetrics(registry, shard_prefix);
    }
  }
}

}  // namespace steghide::storage
