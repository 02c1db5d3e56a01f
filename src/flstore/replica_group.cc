#include "flstore/replica_group.h"

#include <cstdint>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "common/codec.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace chariots::flstore {

namespace {

metrics::Counter* ReplicatedEntriesCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "flstore.replica.entries_replicated");
  return c;
}

metrics::Histogram* ReplicationLagHist() {
  static metrics::Histogram* h = metrics::Registry::Default().GetHistogram(
      "flstore.replica.replication_lag_ns");
  return h;
}

metrics::Counter* FenceCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("flstore.replica.fence_events");
  return c;
}

}  // namespace

std::string EncodeInvalidateRequest(const InvalidateRequest& req) {
  size_t size = 2 * sizeof(uint64_t) + sizeof(uint32_t) +
                BinaryWriter::BytesSize(req.client_id) +
                BinaryWriter::BytesSize(req.response);
  for (const ReplicatedEntry& e : req.entries) {
    size += sizeof(uint64_t) + BinaryWriter::BytesSize(e.record_bytes);
  }
  BinaryWriter w;
  w.Reserve(size);
  w.PutU64(req.epoch);
  w.PutU32(static_cast<uint32_t>(req.entries.size()));
  for (const ReplicatedEntry& e : req.entries) {
    w.PutU64(e.lid);
    w.PutBytes(e.record_bytes);
  }
  w.PutBytes(req.client_id);
  w.PutU64(req.seq);
  w.PutBytes(req.response);
  return std::move(w).data();
}

Result<InvalidateRequest> DecodeInvalidateRequest(std::string_view data) {
  BinaryReader r(data);
  InvalidateRequest req;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&req.epoch));
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  req.entries.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&req.entries[i].lid));
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&req.entries[i].record_bytes));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&req.client_id));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&req.seq));
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&req.response));
  return req;
}

std::string EncodeValidateNotice(const ValidateNotice& notice) {
  BinaryWriter w;
  w.PutU64(notice.epoch);
  w.PutU32(static_cast<uint32_t>(notice.lids.size()));
  for (LId lid : notice.lids) w.PutU64(lid);
  w.PutU64(notice.floor);
  return std::move(w).data();
}

Result<ValidateNotice> DecodeValidateNotice(std::string_view data) {
  BinaryReader r(data);
  ValidateNotice notice;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&notice.epoch));
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  notice.lids.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&notice.lids[i]));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&notice.floor));
  return notice;
}

ReplicaGroup::ReplicaGroup(net::RpcEndpoint* endpoint, ReplicaOptions options)
    : endpoint_(endpoint),
      role_(options.role),
      epoch_(options.epoch),
      peers_(std::move(options.peers)),
      invalidate_timeout_(options.invalidate_timeout) {}

ReplicaRole ReplicaGroup::role() const {
  std::lock_guard<std::mutex> lock(mu_);
  return role_;
}

uint64_t ReplicaGroup::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

bool ReplicaGroup::fenced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fenced_;
}

std::vector<net::NodeId> ReplicaGroup::peers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peers_;
}

bool ReplicaGroup::replicates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return role_ == ReplicaRole::kCoordinator && !peers_.empty();
}

bool ReplicaGroup::in_replica_set() const {
  std::lock_guard<std::mutex> lock(mu_);
  return role_ == ReplicaRole::kReplica ||
         (role_ == ReplicaRole::kCoordinator && !peers_.empty());
}

void ReplicaGroup::InvalidateBroadcast(std::vector<ReplicatedEntry> entries,
                                       const std::string& client_id,
                                       uint64_t seq,
                                       const std::string& response,
                                       RoundDone done) {
  InvalidateRequest req;
  std::vector<net::NodeId> peers;
  Status refusal;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fenced_) {
      refusal = Status::Unavailable("NOT_COORDINATOR: fenced");
    } else if (role_ == ReplicaRole::kReplica) {
      refusal = Status::Unavailable("NOT_COORDINATOR: replica");
    }
    req.epoch = epoch_;
    peers = peers_;
  }
  if (!refusal.ok() || peers.empty()) {  // refused, or no one to replicate to
    done(refusal, net::NodeId());
    return;
  }
  req.entries = std::move(entries);
  req.client_id = client_id;
  req.seq = seq;
  req.response = response;

  // Completion state shared by the peers' calls; the last answer (or the
  // first epoch rejection) decides the round.
  struct Round {
    std::mutex mu;
    size_t outstanding = 0;
    bool decided = false;
    size_t failed_peer = SIZE_MAX;  // lowest peer index that failed
    Status failure;
    std::vector<net::NodeId> peers;
    size_t entry_count = 0;
    int64_t start_nanos = 0;
    RoundDone done;
  };
  auto round = std::make_shared<Round>();
  round->outstanding = peers.size();
  round->peers = std::move(peers);
  round->entry_count = req.entries.size();
  round->start_nanos = SystemClock::Default()->NowNanos();
  round->done = std::move(done);
  // Replication lag = how long the INV round holds up the append ack.
  auto finish = [round](Status status, const net::NodeId& unreachable) {
    ReplicationLagHist()->Record(static_cast<uint64_t>(
        SystemClock::Default()->NowNanos() - round->start_nanos));
    round->done(std::move(status), unreachable);
  };

  net::CallOptions options;
  options.timeout = invalidate_timeout_;
  std::string wire = EncodeInvalidateRequest(req);
  const size_t n = round->peers.size();
  for (size_t i = 0; i < n; ++i) {
    std::string payload = i + 1 < n ? wire : std::move(wire);
    endpoint_->CallAsync(
        round->peers[i], kInvalidateRpc, std::move(payload), options,
        [this, round, finish, i](Result<std::string> result) {
          std::unique_lock<std::mutex> lock(round->mu);
          if (round->decided) return;
          const net::NodeId& peer = round->peers[i];
          if (result.status().code() == StatusCode::kFailedPrecondition) {
            // Epoch rejection: a higher epoch exists somewhere, so this
            // node was deposed. Self-fence — our unacked invalid tail dies
            // with us.
            round->decided = true;
            lock.unlock();
            LOG_EVERY_N_SEC(kWarn, 5)
                << "invalidate to " << peer
                << " rejected, fencing: " << result.status().ToString();
            Fence();
            finish(Status::Unavailable("NOT_COORDINATOR: deposed (" +
                                       result.status().ToString() + ")"),
                   net::NodeId());
            return;
          }
          if (!result.ok() && i < round->failed_peer) {
            round->failed_peer = i;
            round->failure = result.status();
          }
          if (--round->outstanding > 0) return;
          round->decided = true;
          lock.unlock();
          if (round->failed_peer == SIZE_MAX) {
            ReplicatedEntriesCounter()->Add(round->entry_count);
            finish(Status::OK(), net::NodeId());
            return;
          }
          // Transport failure: the peer is suspect, but we may still be
          // the live coordinator. The batch stays applied-but-invalid
          // locally; the caller reports the suspect so the controller can
          // drop the peer, after which a replay revalidates the batch.
          const net::NodeId& suspect = round->peers[round->failed_peer];
          LOG_EVERY_N_SEC(kWarn, 5) << "invalidate to " << suspect
                                    << " unreachable: "
                                    << round->failure.ToString();
          finish(Status::Unavailable("REPLICA_UNREACHABLE: " + suspect +
                                     " (" + round->failure.ToString() + ")"),
                 suspect);
        });
  }
}

void ReplicaGroup::ValidateBroadcast(const std::vector<LId>& lids, LId floor) {
  ValidateNotice notice;
  std::vector<net::NodeId> peers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fenced_ || role_ == ReplicaRole::kReplica || peers_.empty()) return;
    notice.epoch = epoch_;
    peers = peers_;
  }
  notice.lids = lids;
  notice.floor = floor;
  std::string wire = EncodeValidateNotice(notice);
  for (const net::NodeId& peer : peers) {
    endpoint_->Notify(peer, kValidateRpc, wire);
  }
}

Status ReplicaGroup::CheckAppendServing() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (fenced_) return Status::Unavailable("NOT_COORDINATOR: fenced");
  if (role_ == ReplicaRole::kReplica) {
    return Status::Unavailable("NOT_COORDINATOR: replica serves reads only");
  }
  return Status::OK();
}

Status ReplicaGroup::CheckReadServing() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (fenced_) return Status::Unavailable("FENCED: not serving");
  return Status::OK();
}

Status ReplicaGroup::AcceptRemoteEpoch(uint64_t remote_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fenced_) return Status::Unavailable("FENCED: not serving");
  if (remote_epoch < epoch_) {
    return Status::FailedPrecondition("stale replication epoch");
  }
  if (remote_epoch > epoch_) {
    // A higher epoch means a committed reconfiguration we missed. Adopt it;
    // a coordinator seeing this was deposed and rejoins as a replica (the
    // sender is the new coordinator replaying into us).
    epoch_ = remote_epoch;
    if (role_ == ReplicaRole::kCoordinator) {
      role_ = ReplicaRole::kReplica;
      peers_.clear();
    }
  }
  return Status::OK();
}

Status ReplicaGroup::Promote(uint64_t new_epoch,
                             std::vector<net::NodeId> peers) {
  std::lock_guard<std::mutex> lock(mu_);
  if (role_ == ReplicaRole::kCoordinator && epoch_ == new_epoch) {
    return Status::OK();  // retried promotion
  }
  if (new_epoch <= epoch_) {
    return Status::FailedPrecondition("promotion epoch must move forward");
  }
  if (fenced_) return Status::FailedPrecondition("cannot promote fenced node");
  role_ = ReplicaRole::kCoordinator;
  epoch_ = new_epoch;
  peers_ = std::move(peers);
  return Status::OK();
}

Status ReplicaGroup::Reconfigure(uint64_t new_epoch,
                                 std::vector<net::NodeId> peers) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fenced_) return Status::FailedPrecondition("cannot reconfigure fenced node");
  if (role_ == ReplicaRole::kReplica) {
    return Status::FailedPrecondition("only the coordinator reconfigures");
  }
  if (new_epoch < epoch_) {
    return Status::FailedPrecondition("reconfigure epoch must not move back");
  }
  epoch_ = new_epoch;
  peers_ = std::move(peers);
  if (role_ == ReplicaRole::kSolo && !peers_.empty()) {
    role_ = ReplicaRole::kCoordinator;
  }
  return Status::OK();
}

void ReplicaGroup::Fence() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!fenced_) FenceCounter()->Add();
  fenced_ = true;
}

}  // namespace chariots::flstore
