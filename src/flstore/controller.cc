#include "flstore/controller.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/codec.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace chariots::flstore {

namespace {

metrics::Counter* MetaWalAppendsCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.ctrl.meta_wal_appends");
  return c;
}

/// Guards a decoded element count against the bytes actually present:
/// every counted element consumes at least one byte downstream, so a count
/// beyond the remaining input is corruption — and resizing a vector to a
/// bit-flipped 4-billion count must never be attempted.
Status CheckCount(uint32_t n, const BinaryReader& r) {
  if (n > r.remaining()) {
    return Status::Corruption("element count exceeds remaining input");
  }
  return Status::OK();
}

void EncodeFailoverPlan(const FailoverPlan& plan, BinaryWriter* w) {
  w->PutU32(plan.index);
  w->PutU64(plan.new_epoch);
  w->PutBytes(plan.candidate);
  w->PutBytes(plan.failed_primary);
  w->PutU32(static_cast<uint32_t>(plan.survivors.size()));
  for (const net::NodeId& node : plan.survivors) w->PutBytes(node);
}

Status DecodeFailoverPlan(BinaryReader* r, FailoverPlan* plan) {
  CHARIOTS_RETURN_IF_ERROR(r->GetU32(&plan->index));
  CHARIOTS_RETURN_IF_ERROR(r->GetU64(&plan->new_epoch));
  CHARIOTS_RETURN_IF_ERROR(r->GetBytes(&plan->candidate));
  CHARIOTS_RETURN_IF_ERROR(r->GetBytes(&plan->failed_primary));
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r->GetU32(&n));
  CHARIOTS_RETURN_IF_ERROR(CheckCount(n, *r));
  plan->survivors.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r->GetBytes(&plan->survivors[i]));
  }
  return Status::OK();
}

void EncodeReplicaRemoval(const ReplicaRemoval& removal, BinaryWriter* w) {
  w->PutU32(removal.index);
  w->PutU64(removal.new_epoch);
  w->PutBytes(removal.removed);
  w->PutBytes(removal.coordinator);
  w->PutU32(static_cast<uint32_t>(removal.survivors.size()));
  for (const net::NodeId& node : removal.survivors) w->PutBytes(node);
}

Status DecodeReplicaRemoval(BinaryReader* r, ReplicaRemoval* removal) {
  CHARIOTS_RETURN_IF_ERROR(r->GetU32(&removal->index));
  CHARIOTS_RETURN_IF_ERROR(r->GetU64(&removal->new_epoch));
  CHARIOTS_RETURN_IF_ERROR(r->GetBytes(&removal->removed));
  CHARIOTS_RETURN_IF_ERROR(r->GetBytes(&removal->coordinator));
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r->GetU32(&n));
  CHARIOTS_RETURN_IF_ERROR(CheckCount(n, *r));
  removal->survivors.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r->GetBytes(&removal->survivors[i]));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeClusterInfo(const ClusterInfo& info) {
  BinaryWriter w;
  w.PutBytes(info.journal.Encode());
  w.PutU32(static_cast<uint32_t>(info.maintainers.size()));
  for (const auto& m : info.maintainers) w.PutBytes(m);
  w.PutU32(static_cast<uint32_t>(info.indexers.size()));
  for (const auto& i : info.indexers) w.PutBytes(i);
  w.PutU64(info.approx_records);
  w.PutU64(info.version);
  w.PutU32(static_cast<uint32_t>(info.replicas.size()));
  for (const auto& set : info.replicas) {
    w.PutU32(static_cast<uint32_t>(set.size()));
    for (const auto& node : set) w.PutBytes(node);
  }
  w.PutU32(static_cast<uint32_t>(info.fence_epochs.size()));
  for (uint64_t e : info.fence_epochs) w.PutU64(e);
  w.PutU64(info.ctrl_epoch);
  return std::move(w).data();
}

Result<ClusterInfo> DecodeClusterInfo(std::string_view data) {
  BinaryReader r(data);
  ClusterInfo info;
  std::string journal_bytes;
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&journal_bytes));
  CHARIOTS_ASSIGN_OR_RETURN(info.journal, EpochJournal::Decode(journal_bytes));
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  CHARIOTS_RETURN_IF_ERROR(CheckCount(n, r));
  info.maintainers.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&info.maintainers[i]));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  CHARIOTS_RETURN_IF_ERROR(CheckCount(n, r));
  info.indexers.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&info.indexers[i]));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&info.approx_records));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&info.version));
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  CHARIOTS_RETURN_IF_ERROR(CheckCount(n, r));
  info.replicas.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t m = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&m));
    CHARIOTS_RETURN_IF_ERROR(CheckCount(m, r));
    info.replicas[i].resize(m);
    for (uint32_t j = 0; j < m; ++j) {
      CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&info.replicas[i][j]));
    }
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  CHARIOTS_RETURN_IF_ERROR(CheckCount(n, r));
  info.fence_epochs.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&info.fence_epochs[i]));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&info.ctrl_epoch));
  return info;
}

std::string EncodeControllerState(const ControllerState& state) {
  BinaryWriter w;
  w.PutBytes(EncodeClusterInfo(state.info));
  w.PutU64(state.max_granted_epoch);
  w.PutU32(static_cast<uint32_t>(state.inflight_failovers.size()));
  for (const FailoverPlan& plan : state.inflight_failovers) {
    EncodeFailoverPlan(plan, &w);
  }
  w.PutU32(static_cast<uint32_t>(state.inflight_removals.size()));
  for (const ReplicaRemoval& removal : state.inflight_removals) {
    EncodeReplicaRemoval(removal, &w);
  }
  return std::move(w).data();
}

Result<ControllerState> DecodeControllerState(std::string_view data) {
  BinaryReader r(data);
  ControllerState state;
  std::string info_bytes;
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&info_bytes));
  CHARIOTS_ASSIGN_OR_RETURN(state.info, DecodeClusterInfo(info_bytes));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&state.max_granted_epoch));
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  CHARIOTS_RETURN_IF_ERROR(CheckCount(n, r));
  state.inflight_failovers.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(
        DecodeFailoverPlan(&r, &state.inflight_failovers[i]));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  CHARIOTS_RETURN_IF_ERROR(CheckCount(n, r));
  state.inflight_removals.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(
        DecodeReplicaRemoval(&r, &state.inflight_removals[i]));
  }
  return state;
}

Controller::Controller(ClusterInfo initial, ControllerOptions options)
    : options_(options),
      info_(std::move(initial)),
      leases_(options.clock, options.lease_nanos),
      wal_(storage::MetaWal::Options{options.meta_wal_path,
                                     options.disk_faults,
                                     options.meta_wal_compact_min_frames}) {
  // Normalize the replica-set vectors so callers that build a ClusterInfo
  // the pre-replication way (maintainers only) get sane defaults: no
  // replicas, every stripe at fencing epoch 1.
  info_.replicas.resize(info_.maintainers.size());
  if (info_.fence_epochs.size() < info_.maintainers.size()) {
    info_.fence_epochs.resize(info_.maintainers.size(), 1);
  }
  for (uint64_t& e : info_.fence_epochs) {
    if (e == 0) e = 1;
  }
  if (info_.ctrl_epoch == 0) info_.ctrl_epoch = 1;
}

Controller::~Controller() { (void)Close(); }

Status Controller::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.meta_wal_path.empty() || wal_open_) return Status::OK();
  CHARIOTS_RETURN_IF_ERROR(wal_.Open());
  wal_open_ = true;
  std::optional<std::string> frame = wal_.recovered();
  if (!frame.has_value()) {
    // First boot on this WAL: the constructor's initial state becomes
    // frame zero, so even a crash before the first mutation recovers it.
    return PersistLocked();
  }
  CHARIOTS_ASSIGN_OR_RETURN(ControllerState state,
                            DecodeControllerState(*frame));
  info_ = std::move(state.info);
  max_granted_epoch_ = state.max_granted_epoch;
  inflight_failovers_.clear();
  for (FailoverPlan& plan : state.inflight_failovers) {
    uint32_t index = plan.index;
    inflight_failovers_.emplace(index, std::move(plan));
  }
  inflight_removals_.clear();
  for (ReplicaRemoval& removal : state.inflight_removals) {
    uint32_t index = removal.index;
    inflight_removals_.emplace(index, std::move(removal));
  }
  // Leases are runtime state: detection re-arms as coordinators heartbeat
  // the recovered layout.
  return Status::OK();
}

Status Controller::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!wal_open_) return Status::OK();
  wal_open_ = false;
  return wal_.Close();
}

Status Controller::PersistLocked() {
  if (!wal_open_) return Status::OK();
  ControllerState state;
  state.info = info_;
  state.max_granted_epoch = max_granted_epoch_;
  state.inflight_failovers.reserve(inflight_failovers_.size());
  for (const auto& [index, plan] : inflight_failovers_) {
    state.inflight_failovers.push_back(plan);
  }
  state.inflight_removals.reserve(inflight_removals_.size());
  for (const auto& [index, removal] : inflight_removals_) {
    state.inflight_removals.push_back(removal);
  }
  CHARIOTS_RETURN_IF_ERROR(wal_.Append(EncodeControllerState(state)));
  MetaWalAppendsCounter()->Add();
  return Status::OK();
}

template <typename Fn>
Status Controller::MutateLocked(Fn&& fn) {
  ClusterInfo saved_info = info_;
  std::map<uint32_t, FailoverPlan> saved_failovers = inflight_failovers_;
  std::map<uint32_t, ReplicaRemoval> saved_removals = inflight_removals_;
  uint64_t saved_granted = max_granted_epoch_;
  Status applied = fn();
  if (!applied.ok()) return applied;
  Status persisted = PersistLocked();
  if (!persisted.ok()) {
    // The disk refused the frame; roll memory back so the caller's failed
    // mutation really did not happen (a restart would not know it either).
    info_ = std::move(saved_info);
    inflight_failovers_ = std::move(saved_failovers);
    inflight_removals_ = std::move(saved_removals);
    max_granted_epoch_ = saved_granted;
    return persisted;
  }
  return Status::OK();
}

ClusterInfo Controller::GetInfo() const {
  std::lock_guard<std::mutex> lock(mu_);
  return info_;
}

Status Controller::AddMaintainer(const net::NodeId& node,
                                 const StripeEpoch& epoch,
                                 uint64_t expected_version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (expected_version != info_.version) {
    return Status::Aborted(
        "cluster layout moved (concurrent failover or membership change); "
        "re-read and retry AddMaintainer");
  }
  if (epoch.num_maintainers != info_.maintainers.size() + 1) {
    return Status::InvalidArgument(
        "new epoch must reference the grown maintainer count");
  }
  return MutateLocked([&] {
    CHARIOTS_RETURN_IF_ERROR(info_.journal.AddEpoch(epoch));
    info_.maintainers.push_back(node);
    info_.replicas.emplace_back();
    info_.fence_epochs.push_back(1);
    ++info_.version;
    return Status::OK();
  });
}

Status Controller::AddReplica(uint32_t index, const net::NodeId& replica) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= info_.maintainers.size()) {
    return Status::InvalidArgument("no such maintainer stripe");
  }
  return MutateLocked([&] {
    info_.replicas[index].push_back(replica);
    ++info_.version;
    return Status::OK();
  });
}

void Controller::Heartbeat(uint32_t index, const net::NodeId& from) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index >= info_.maintainers.size()) return;
    if (info_.maintainers[index] != from) return;  // fenced old coordinator
  }
  leases_.Renew(index);
}

std::vector<FailoverPlan> Controller::ExpiredLeases() {
  std::vector<FailoverPlan> plans;
  for (uint64_t key : leases_.Expired()) {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t index = static_cast<uint32_t>(key);
    if (InFailoverLocked(index)) continue;
    if (index >= info_.maintainers.size()) {
      leases_.Remove(key);
      continue;
    }
    if (info_.replicas[index].empty()) {
      // Nothing to promote; drop the lease so we don't report the stripe
      // every tick (it re-arms if the coordinator comes back and
      // heartbeats). Rate-limited: with the monitor ticking every few ms,
      // a replica-less dead stripe would otherwise flood the log.
      LOG_EVERY_N_SEC(kWarn, 5)
          << "maintainer " << index << " (" << info_.maintainers[index]
          << ") lease expired but stripe has no replicas";
      leases_.Remove(key);
      continue;
    }
    FailoverPlan plan{
        .index = index,
        .new_epoch = info_.fence_epochs[index] + 1,
        .candidate = info_.replicas[index].front(),
        .survivors = {info_.replicas[index].begin() + 1,
                      info_.replicas[index].end()},
        .failed_primary = info_.maintainers[index],
    };
    Status planned = MutateLocked([&] {
      inflight_failovers_.emplace(index, plan);
      return Status::OK();
    });
    if (!planned.ok()) {
      LOG_EVERY_N_SEC(kWarn, 5) << "could not persist failover plan for "
                                << "stripe " << index << ": "
                                << planned.ToString();
      continue;
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

Result<FailoverPlan> Controller::PlanFailover(uint32_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= info_.maintainers.size()) {
    return Status::InvalidArgument("no such maintainer stripe");
  }
  if (InFailoverLocked(index)) {
    return Status::Aborted("failover already in flight for this stripe");
  }
  if (info_.replicas[index].empty()) {
    return Status::FailedPrecondition("stripe has no replicas to promote");
  }
  FailoverPlan plan{
      .index = index,
      .new_epoch = info_.fence_epochs[index] + 1,
      .candidate = info_.replicas[index].front(),
      .survivors = {info_.replicas[index].begin() + 1,
                    info_.replicas[index].end()},
      .failed_primary = info_.maintainers[index],
  };
  CHARIOTS_RETURN_IF_ERROR(MutateLocked([&] {
    inflight_failovers_.emplace(index, plan);
    return Status::OK();
  }));
  return plan;
}

Status Controller::CommitFailover(const FailoverPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_failovers_.count(plan.index) == 0) {
    return Status::FailedPrecondition("no failover planned for this stripe");
  }
  if (plan.index >= info_.maintainers.size() ||
      info_.replicas[plan.index].empty() ||
      info_.replicas[plan.index].front() != plan.candidate) {
    inflight_failovers_.erase(plan.index);
    (void)PersistLocked();
    return Status::Aborted("stripe layout changed under the failover plan");
  }
  LOG_INFO << "failing over maintainer " << plan.index << ": "
           << plan.failed_primary << " -> " << plan.candidate << " (epoch "
           << plan.new_epoch << ")";
  CHARIOTS_RETURN_IF_ERROR(MutateLocked([&] {
    info_.maintainers[plan.index] = plan.candidate;
    info_.replicas[plan.index] = plan.survivors;
    info_.fence_epochs[plan.index] = plan.new_epoch;
    ++info_.version;
    inflight_failovers_.erase(plan.index);
    return Status::OK();
  }));
  // The old lease belonged to the dead coordinator; detection for this
  // stripe re-arms when the promoted node first heartbeats.
  leases_.Remove(plan.index);
  return Status::OK();
}

void Controller::AbortFailover(uint32_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)MutateLocked([&] {
    inflight_failovers_.erase(index);
    return Status::OK();
  });
  // Re-arm so the monitor retries after another full lease period instead
  // of hot-looping on a promotion RPC that just failed.
  leases_.Renew(index);
}

Result<ReplicaRemoval> Controller::PlanReplicaRemoval(
    uint32_t index, const net::NodeId& suspect) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= info_.maintainers.size()) {
    return Status::InvalidArgument("no such maintainer stripe");
  }
  if (InFailoverLocked(index)) {
    return Status::Aborted("reconfiguration already in flight for stripe");
  }
  const std::vector<net::NodeId>& set = info_.replicas[index];
  if (std::find(set.begin(), set.end(), suspect) == set.end()) {
    return Status::FailedPrecondition("suspect is not a replica of stripe");
  }
  ReplicaRemoval removal;
  removal.index = index;
  removal.new_epoch = info_.fence_epochs[index] + 1;
  removal.removed = suspect;
  removal.coordinator = info_.maintainers[index];
  for (const net::NodeId& node : set) {
    if (node != suspect) removal.survivors.push_back(node);
  }
  CHARIOTS_RETURN_IF_ERROR(MutateLocked([&] {
    inflight_removals_.emplace(index, removal);
    return Status::OK();
  }));
  return removal;
}

Status Controller::CommitReplicaRemoval(const ReplicaRemoval& removal) {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_removals_.count(removal.index) == 0) {
    return Status::FailedPrecondition("no eviction planned for this stripe");
  }
  if (removal.index >= info_.maintainers.size() ||
      info_.maintainers[removal.index] != removal.coordinator) {
    inflight_removals_.erase(removal.index);
    (void)PersistLocked();
    return Status::Aborted("stripe layout changed under the eviction plan");
  }
  LOG_INFO << "evicting replica " << removal.removed << " from maintainer "
           << removal.index << " (epoch " << removal.new_epoch << ")";
  return MutateLocked([&] {
    info_.replicas[removal.index] = removal.survivors;
    info_.fence_epochs[removal.index] = removal.new_epoch;
    ++info_.version;
    inflight_removals_.erase(removal.index);
    return Status::OK();
  });
}

void Controller::AbortReplicaRemoval(uint32_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)MutateLocked([&] {
    inflight_removals_.erase(index);
    return Status::OK();
  });
}

uint64_t Controller::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return info_.version;
}

uint64_t Controller::ctrl_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return info_.ctrl_epoch;
}

uint64_t Controller::max_granted_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_granted_epoch_;
}

Status Controller::AdoptCtrlEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch <= info_.ctrl_epoch) return Status::OK();
  return MutateLocked([&] {
    info_.ctrl_epoch = epoch;
    return Status::OK();
  });
}

Result<bool> Controller::GrantVote(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch <= info_.ctrl_epoch || epoch <= max_granted_epoch_) {
    return false;
  }
  CHARIOTS_RETURN_IF_ERROR(MutateLocked([&] {
    max_granted_epoch_ = epoch;
    return Status::OK();
  }));
  return true;
}

Status Controller::InstallReplicatedState(const ClusterInfo& info) {
  std::lock_guard<std::mutex> lock(mu_);
  if (std::tie(info.ctrl_epoch, info.version) <
      std::tie(info_.ctrl_epoch, info_.version)) {
    return Status::Aborted("offered layout is older than the local one");
  }
  return MutateLocked([&] {
    info_ = info;
    // Any locally planned two-phase work is moot: the leader that sent
    // this layout owns reconfiguration now.
    inflight_failovers_.clear();
    inflight_removals_.clear();
    return Status::OK();
  });
}

std::vector<FailoverPlan> Controller::InflightFailovers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FailoverPlan> plans;
  plans.reserve(inflight_failovers_.size());
  for (const auto& [index, plan] : inflight_failovers_) {
    plans.push_back(plan);
  }
  return plans;
}

std::vector<ReplicaRemoval> Controller::InflightRemovals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReplicaRemoval> removals;
  removals.reserve(inflight_removals_.size());
  for (const auto& [index, removal] : inflight_removals_) {
    removals.push_back(removal);
  }
  return removals;
}

}  // namespace chariots::flstore
