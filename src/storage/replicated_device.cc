#include "storage/replicated_device.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace steghide::storage {

namespace {

/// Immediate same-replica attempts per write before the replica is
/// counted as having missed it.
constexpr int kWriteAttempts = 2;

bool RetriableWrite(const Status& status) {
  // kDeadlineExceeded is what a partitioned/timed-out remote replica
  // surfaces; it is as transient as kIoError.
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

ReplicatedBlockDevice::ReplicatedBlockDevice(
    std::vector<BlockDevice*> replicas, ReplicationOptions options)
    : replicas_(std::move(replicas)),
      options_(options),
      block_size_(replicas_.empty() ? kDefaultBlockSize
                                    : replicas_.front()->block_size()),
      states_(replicas_.size()),
      consecutive_read_errors_(replicas_.size(), 0),
      consecutive_write_errors_(replicas_.size(), 0),
      missed_(replicas_.size()) {
  assert(!replicas_.empty());
  uint64_t min_blocks = replicas_.front()->num_blocks();
  for (BlockDevice* replica : replicas_) {
    assert(replica->block_size() == block_size_);
    if (replica->num_blocks() < min_blocks) min_blocks = replica->num_blocks();
  }
  num_blocks_ = min_blocks;
  write_quorum_ =
      std::clamp<size_t>(options_.write_quorum, 1, replicas_.size());
  read_quorum_ = std::clamp<size_t>(options_.read_quorum, 1, replicas_.size());
  cells_.healthy_replicas.Set(static_cast<double>(replicas_.size()));
}

void ReplicatedBlockDevice::SetState(size_t r, ReplicaState state) {
  states_[r].store(static_cast<uint8_t>(state), std::memory_order_relaxed);
  cells_.healthy_replicas.Set(static_cast<double>(healthy_count()));
  cells_.lagging_replicas.Set(static_cast<double>(lagging_count()));
}

size_t ReplicatedBlockDevice::healthy_count() const {
  size_t n = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (replica_state(r) == ReplicaState::kHealthy) ++n;
  }
  return n;
}

size_t ReplicatedBlockDevice::lagging_count() const {
  size_t n = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (replica_state(r) == ReplicaState::kLagging) ++n;
  }
  return n;
}

void ReplicatedBlockDevice::Quarantine(size_t r) {
  if (replica_state(r) == ReplicaState::kQuarantined) return;
  SetState(r, ReplicaState::kQuarantined);
  cells_.quarantines.Increment();
}

bool ReplicatedBlockDevice::ServingOrder(std::vector<size_t>* order) {
  order->clear();
  for (size_t r = 0; r < replicas_.size(); ++r) {
    const ReplicaState state = replica_state(r);
    if (state == ReplicaState::kHealthy || state == ReplicaState::kLagging) {
      order->push_back(r);
    }
  }
  if (order->empty()) return false;
  // Data-independent replica choice: rotate the serving list by a
  // counter of read calls. The first entry serves; the rest are the
  // failover order.
  const size_t shift = static_cast<size_t>(rr_++ % order->size());
  std::rotate(order->begin(), order->begin() + shift, order->end());
  return true;
}

// ---------------------------------------------------------------------------
// Staleness bookkeeping

bool ReplicatedBlockDevice::CurrentForAll(
    size_t r, std::span<const uint64_t> ids) const {
  // A replica that missed nothing is current for any id set.
  if (missed_[r].empty()) return true;
  for (uint64_t id : ids) {
    if (!Current(r, id)) return false;
  }
  return true;
}

void ReplicatedBlockDevice::MarkCurrent(size_t r,
                                        std::span<const uint64_t> ids) {
  if (missed_[r].empty()) return;
  for (uint64_t id : ids) missed_[r].erase(id);
}

uint64_t ReplicatedBlockDevice::CopyRank(size_t r, uint64_t id) const {
  // A replica whose first miss of `id` came later holds a later write of
  // it, so ranking by first miss orders copies oldest to newest; a
  // current copy is the newest there is.
  const auto it = missed_[r].find(id);
  return it == missed_[r].end() ? std::numeric_limits<uint64_t>::max()
                                : it->second;
}

void ReplicatedBlockDevice::NoteReadFailure(size_t r) {
  // Transient hiccups stay in rotation; a replica that keeps failing
  // gets benched so serving stops paying its failover latency.
  if (++consecutive_read_errors_[r] >= options_.quarantine_after) {
    Quarantine(r);
  }
}

void ReplicatedBlockDevice::NoteWriteFailure(size_t r) {
  cells_.missed_writes.Increment();
  // A strict mirror benches a replica the moment it misses a write; a
  // quorum mirror lets it lag, still serving the blocks it holds
  // current, until quarantine_after consecutive misses.
  if (!options_.quorum ||
      ++consecutive_write_errors_[r] >= options_.quarantine_after) {
    Quarantine(r);
    return;
  }
  if (replica_state(r) == ReplicaState::kHealthy) {
    SetState(r, ReplicaState::kLagging);
    cells_.lag_episodes.Increment();
  }
}

void ReplicatedBlockDevice::MaybePromote(size_t r) {
  if (replica_state(r) == ReplicaState::kLagging && missed_[r].empty()) {
    SetState(r, ReplicaState::kHealthy);
  }
}

// ---------------------------------------------------------------------------
// Serving

Status ReplicatedBlockDevice::WriteBlocks(std::span<const uint64_t> ids,
                                          const uint8_t* data) {
  if (ids.empty()) return Status::OK();
  for (uint64_t id : ids) STEGHIDE_RETURN_IF_ERROR(CheckRange(id));
  cells_.writes.Add(ids.size());
  const uint64_t seq = ++write_seq_;
  size_t acks = 0;
  Status first_error;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    const ReplicaState state = replica_state(r);
    if (state == ReplicaState::kQuarantined) continue;
    Status status;
    for (int attempt = 0; attempt < kWriteAttempts; ++attempt) {
      status = replicas_[r]->WriteBlocks(ids, data);
      if (status.ok() || !RetriableWrite(status)) break;
    }
    if (status.ok()) {
      consecutive_write_errors_[r] = 0;
      MarkCurrent(r, ids);
      // A mid-repair replica's ack is not servable until its sweep
      // finishes, so it does not count toward the quorum.
      if (state != ReplicaState::kRepairing) ++acks;
      MaybePromote(r);
      continue;
    }
    if (first_error.ok()) first_error = status;
    // The replica now lacks these blocks. Only the first miss of a
    // block is kept: the copy it holds predates that write.
    for (uint64_t id : ids) missed_[r].emplace(id, seq);
    NoteWriteFailure(r);
  }
  if (acks >= write_quorum_) return Status::OK();
  cells_.write_quorum_failures.Increment();
  return first_error.ok()
             ? Status::IoError("replicated device: write quorum not met")
             : first_error;
}

Status ReplicatedBlockDevice::ReadBlocks(std::span<const uint64_t> ids,
                                         uint8_t* out) {
  if (ids.empty()) return Status::OK();
  for (uint64_t id : ids) STEGHIDE_RETURN_IF_ERROR(CheckRange(id));
  cells_.reads.Add(ids.size());
  std::vector<size_t> order;
  if (!ServingOrder(&order)) {
    return Status::IoError("replicated device: no healthy replicas");
  }
  const size_t quorum_window = std::min(read_quorum_, order.size());
  const double t0 = clock_fn_ ? clock_fn_() : 0.0;
  const size_t bs = block_size_;

  // Fast path: a replica that is current for the entire batch serves it
  // in one vectored call, in rotation-failover order.
  Status last_error;
  bool widened = false;
  for (size_t attempt = 0; attempt < order.size(); ++attempt) {
    const size_t r = order[attempt];
    if (!CurrentForAll(r, ids)) continue;
    if (attempt >= quorum_window) widened = true;
    Status status = replicas_[r]->ReadBlocks(ids, out);
    if (status.ok()) {
      consecutive_read_errors_[r] = 0;
      if (attempt > 0) {
        cells_.failovers.Increment();
        if (clock_fn_) cells_.failover_ms.Record(clock_fn_() - t0);
      }
      if (widened) cells_.quorum_widened.Increment();
      ReadRepair(ids, out, std::vector<bool>(ids.size(), true));
      return Status::OK();
    }
    last_error = status;
    NoteReadFailure(r);
  }

  // Assembly path: no single serving replica delivered the whole batch
  // (it lacks some blocks, or every one failed part of it). Serve each
  // block from a replica that is current *for that block*; only if no
  // current replica is reachable does a stale copy get served — and
  // counted, because that is data loss.
  std::vector<bool> served_current(ids.size(), false);
  bool any_failover = false;
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint64_t id = ids[i];
    uint8_t* dst = out + i * bs;
    bool done = false;
    for (size_t attempt = 0; attempt < order.size() && !done; ++attempt) {
      const size_t r = order[attempt];
      if (!Current(r, id)) continue;
      if (attempt >= quorum_window) widened = true;
      if (attempt > 0) any_failover = true;
      Status status = replicas_[r]->ReadBlock(id, dst);
      if (status.ok()) {
        consecutive_read_errors_[r] = 0;
        served_current[i] = true;
        done = true;
        break;
      }
      last_error = status;
      NoteReadFailure(r);
    }
    if (done) continue;
    // Fallback: the newest copy wins. Ties go to the first replica in
    // rotation order, which keeps the choice data-independent.
    size_t best = order.front();
    for (size_t r : order) {
      if (CopyRank(r, id) > CopyRank(best, id)) best = r;
    }
    Status status = replicas_[best]->ReadBlock(id, dst);
    if (!status.ok()) {
      NoteReadFailure(best);
      return status;
    }
    consecutive_read_errors_[best] = 0;
    // The newest copy may be a current one that failed earlier in this
    // call and reads fine now; only a copy the replica lacks is stale.
    if (Current(best, id)) {
      served_current[i] = true;
    } else {
      cells_.quorum_stale_reads.Increment();
    }
  }
  if (any_failover) {
    cells_.failovers.Increment();
    if (clock_fn_) cells_.failover_ms.Record(clock_fn_() - t0);
  }
  if (widened) cells_.quorum_widened.Increment();
  ReadRepair(ids, out, served_current);
  return Status::OK();
}

void ReplicatedBlockDevice::ReadRepair(std::span<const uint64_t> ids,
                                       const uint8_t* out,
                                       const std::vector<bool>& served_current) {
  const size_t bs = block_size_;
  std::vector<uint64_t> fix_ids;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (replica_state(r) != ReplicaState::kLagging) continue;
    fix_ids.clear();
    repair_buf_.clear();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!served_current[i]) continue;  // never propagate a stale read
      if (Current(r, ids[i])) continue;
      fix_ids.push_back(ids[i]);
      repair_buf_.insert(repair_buf_.end(), out + i * bs, out + (i + 1) * bs);
    }
    if (fix_ids.empty()) continue;
    Status status = replicas_[r]->WriteBlocks(
        std::span<const uint64_t>(fix_ids), repair_buf_.data());
    if (status.ok()) {
      consecutive_write_errors_[r] = 0;
      MarkCurrent(r, fix_ids);
      cells_.read_repairs.Add(fix_ids.size());
      MaybePromote(r);
    } else {
      NoteWriteFailure(r);
    }
  }
}

Status ReplicatedBlockDevice::Flush() {
  size_t acks = 0;
  Status first_error;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    const ReplicaState state = replica_state(r);
    if (state == ReplicaState::kQuarantined) continue;
    const Status status = replicas_[r]->Flush();
    if (status.ok()) {
      consecutive_write_errors_[r] = 0;
      if (state != ReplicaState::kRepairing) ++acks;
      continue;
    }
    if (first_error.ok()) first_error = status;
    NoteWriteFailure(r);
  }
  if (acks >= write_quorum_) return Status::OK();
  cells_.write_quorum_failures.Increment();
  return first_error.ok()
             ? Status::IoError("replicated device: flush quorum not met")
             : first_error;
}

// ---------------------------------------------------------------------------
// Repair

Status ReplicatedBlockDevice::StartRepair(size_t r) {
  if (r >= replicas_.size()) {
    return Status::InvalidArgument("no such replica");
  }
  const ReplicaState state = replica_state(r);
  if (state != ReplicaState::kQuarantined && state != ReplicaState::kLagging) {
    return Status::FailedPrecondition("replica is not quarantined");
  }
  SetState(r, ReplicaState::kRepairing);
  // The sweep re-copies every block, so only misses from here on count.
  missed_[r].clear();
  // The sweep restarts from block 0 — also when a second replica joins
  // an in-flight repair; re-copying a prefix is correct (live writes
  // keep it consistent) and keeps the scrub order a fixed public
  // schedule.
  repair_cursor_ = 0;
  consecutive_read_errors_[r] = 0;
  consecutive_write_errors_[r] = 0;
  return Status::OK();
}

bool ReplicatedBlockDevice::repair_pending() const {
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (replica_state(r) == ReplicaState::kRepairing) return true;
  }
  return false;
}

Status ReplicatedBlockDevice::RepairStep(uint64_t budget_blocks, bool* more) {
  if (more != nullptr) *more = false;
  if (!repair_pending()) return Status::OK();
  repair_buf_.resize(block_size_);
  const uint64_t end = std::min(num_blocks_, repair_cursor_ + budget_blocks);
  for (uint64_t b = repair_cursor_; b < end; ++b) {
    // Source selection is a fixed public choice — repair traffic cannot
    // leak which blocks changed while the replica was out: the
    // lowest-index serving replica that is current for *this* block, so
    // repair converges even when no replica is complete but the serving
    // set jointly is.
    size_t source = replicas_.size();
    for (size_t r = 0; r < replicas_.size(); ++r) {
      const ReplicaState state = replica_state(r);
      const bool serving =
          state == ReplicaState::kHealthy || state == ReplicaState::kLagging;
      if (serving && Current(r, b)) {
        source = r;
        break;
      }
    }
    if (source == replicas_.size()) {
      return Status::FailedPrecondition("repair has no healthy source");
    }
    STEGHIDE_RETURN_IF_ERROR(replicas_[source]->ReadBlock(b,
                                                          repair_buf_.data()));
    for (size_t r = 0; r < replicas_.size(); ++r) {
      if (replica_state(r) != ReplicaState::kRepairing) continue;
      const Status status = replicas_[r]->WriteBlock(b, repair_buf_.data());
      if (!status.ok()) {
        Quarantine(r);
      } else {
        missed_[r].erase(b);
      }
    }
    cells_.repair_blocks.Increment();
    repair_cursor_ = b + 1;
  }
  if (repair_cursor_ >= num_blocks_) {
    bool restart = false;
    for (size_t r = 0; r < replicas_.size(); ++r) {
      if (replica_state(r) != ReplicaState::kRepairing) continue;
      if (!missed_[r].empty()) {
        // A live write raced the sweep and missed this replica behind
        // the cursor; one more pass picks the block up. The restart
        // decision depends only on write/fault timing, never contents.
        restart = true;
        continue;
      }
      const Status status = replicas_[r]->Flush();
      if (!status.ok()) {
        Quarantine(r);
        continue;
      }
      SetState(r, ReplicaState::kHealthy);
      cells_.repairs_completed.Increment();
    }
    repair_cursor_ = 0;
    if (more != nullptr) *more = restart && repair_pending();
    return Status::OK();
  }
  if (more != nullptr) *more = repair_pending();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Stats

ReplicationStats ReplicatedBlockDevice::stats() const {
  ReplicationStats s = obs::ReadRows(kStatRows, cells_);
  s.healthy_replicas = healthy_count();
  s.lagging_replicas = lagging_count();
  s.failover_ms_max = cells_.failover_ms.max();
  s.failover_ms_mean = cells_.failover_ms.mean();
  s.failover_ms_p50 = cells_.failover_ms.Percentile(50);
  s.failover_ms_p99 = cells_.failover_ms.Percentile(99);
  return s;
}

void ReplicatedBlockDevice::RegisterMetrics(obs::Registry* registry,
                                            const std::string& prefix) {
  registration_ = obs::Registration(registry);
  obs::RegisterRows(kStatRows, cells_, prefix, &registration_);
  registration_.Gauge(prefix + ".healthy_replicas", &cells_.healthy_replicas);
  registration_.Gauge(prefix + ".lagging_replicas", &cells_.lagging_replicas);
  registration_.Histogram(prefix + ".failover_ms", &cells_.failover_ms);
}

}  // namespace steghide::storage
