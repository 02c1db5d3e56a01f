#ifndef CHARIOTS_FLSTORE_CONTROLLER_H_
#define CHARIOTS_FLSTORE_CONTROLLER_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/lease.h"
#include "common/result.h"
#include "common/status.h"
#include "flstore/striping.h"
#include "net/message.h"
#include "storage/meta_wal.h"

namespace chariots::flstore {

/// Everything an application client needs to run a session (paper §5.1):
/// addresses of the maintainers and indexers, the striping history, and an
/// approximate record count — plus, since the replication layer, the
/// per-stripe replica sets and fencing epochs.
struct ClusterInfo {
  EpochJournal journal{1, 1000};
  /// Maintainer node ids, position-aligned with maintainer indices. With
  /// replication these are the stripe *coordinators*.
  std::vector<net::NodeId> maintainers;
  std::vector<net::NodeId> indexers;
  uint64_t approx_records = 0;
  /// Layout version, bumped by every membership change and failover. Writers
  /// of layout (AddMaintainer) must present the version they read — a CAS
  /// that rejects installs racing a concurrent failover promotion.
  uint64_t version = 0;
  /// Replica nodes per maintainer index (the stripe's replica set minus its
  /// coordinator); empty = that stripe is unreplicated. Every replica serves
  /// linearizable reads, so clients spread reads across coordinator +
  /// replicas.
  std::vector<std::vector<net::NodeId>> replicas;
  /// Fencing epoch per maintainer index (starts at 1, bumped on every
  /// failover promotion or replica-set change; see HermesStripe).
  std::vector<uint64_t> fence_epochs;
  /// Controller (leadership) epoch, bumped by every leader election of the
  /// replicated control plane. Stamped into every layout/promotion RPC so
  /// maintainers reject commands from a deposed leader, and carried in the
  /// layout so clients reject a stale leader's view: layouts are ordered by
  /// (ctrl_epoch, version) lexicographically.
  uint64_t ctrl_epoch = 1;
};

std::string EncodeClusterInfo(const ClusterInfo& info);
Result<ClusterInfo> DecodeClusterInfo(std::string_view data);

/// One failover the failure detector decided on: promote `candidate` to
/// coordinator of stripe `index` under the bumped fencing epoch, with
/// `survivors` as its new replica set. Two-phase: the caller delivers the
/// promotion RPC first, then commits (or aborts) the plan.
struct FailoverPlan {
  uint32_t index = 0;
  uint64_t new_epoch = 0;
  net::NodeId candidate;
  std::vector<net::NodeId> survivors;
  net::NodeId failed_primary;
};

/// One replica eviction: drop `removed` from stripe `index`'s replica set
/// under a bumped epoch, so the surviving coordinator's writes stop waiting
/// on a dead peer. Two-phase like FailoverPlan: the caller reconfigures the
/// coordinator first, then commits.
struct ReplicaRemoval {
  uint32_t index = 0;
  uint64_t new_epoch = 0;
  net::NodeId removed;
  net::NodeId coordinator;
  std::vector<net::NodeId> survivors;
};

/// Everything the controller must not forget across a crash: the layout
/// (with its epochs), the highest election epoch it ever voted for, and any
/// two-phase plan that was in flight. One encoded ControllerState is one
/// meta-WAL frame; recovery decodes the last intact frame and *resumes* the
/// in-flight plans (complete or abort) instead of forgetting them.
struct ControllerState {
  ClusterInfo info;
  /// Highest controller epoch this replica granted a vote for (durable so a
  /// restart cannot double-vote in the same epoch).
  uint64_t max_granted_epoch = 0;
  std::vector<FailoverPlan> inflight_failovers;
  std::vector<ReplicaRemoval> inflight_removals;
};

std::string EncodeControllerState(const ControllerState& state);
Result<ControllerState> DecodeControllerState(std::string_view data);

/// Timing knobs for the controller's failure detector.
struct ControllerOptions {
  /// Clock the leases run on; null = system clock. A ManualClock makes
  /// expiry (and thus failover) fully deterministic in tests.
  Clock* clock = nullptr;
  /// Lease duration: a coordinator missing heartbeats for this long is
  /// declared dead and a replica promoted. With the suspect fast path this
  /// is the *backstop* detector, not the expected MTTR.
  int64_t lease_nanos = 150'000'000;  // 150 ms
  /// Metadata WAL path ("" = in-memory only, the pre-durability behavior).
  /// When set, every layout change, epoch bump, vote, and in-flight plan is
  /// framed to this file before the mutation is acknowledged, and Open()
  /// recovers the exact pre-crash state from it.
  std::string meta_wal_path;
  /// Optional scripted disk-fault plan for the meta WAL (crash matrix).
  storage::DiskFaultSchedule* disk_faults = nullptr;
  /// Meta-WAL compaction threshold (see storage::MetaWal::Options).
  size_t meta_wal_compact_min_frames = 16;
};

/// The highly-available control cluster of the paper (§5): an oracle
/// application clients poll at session start for the locations and striping
/// of the log maintainers, now also the failure detector — coordinators
/// heartbeat it, an expired lease triggers promotion of a stripe replica
/// under a bumped fencing epoch (paper §5.3 reconfiguration), and suspect
/// reports from clients or coordinators trigger the same reconfigurations
/// without waiting out the lease.
class Controller {
 public:
  explicit Controller(ClusterInfo initial, ControllerOptions options = {});
  ~Controller();

  /// Opens the metadata WAL (when configured) and recovers from it: a
  /// non-empty WAL *replaces* the constructor's initial info with the exact
  /// pre-crash state — layout, fence epochs, controller epoch, granted
  /// votes, and in-flight plans. An empty WAL persists the initial state as
  /// its first frame. No-op without a WAL path. Call before serving.
  Status Open();
  Status Close();

  ClusterInfo GetInfo() const;

  /// Live elasticity: appends `node` as a new maintainer and installs the
  /// given future epoch (which must reference the grown maintainer count).
  /// CAS-fenced: `expected_version` must equal the current layout version
  /// (the caller's read), else kAborted — an install racing a concurrent
  /// failover promotion must re-read the layout and retry, not clobber it.
  Status AddMaintainer(const net::NodeId& node, const StripeEpoch& epoch,
                       uint64_t expected_version);

  /// Adds `replica` to stripe `index`'s replica set (bumps the version).
  Status AddReplica(uint32_t index, const net::NodeId& replica);

  /// Heartbeat from the coordinator of stripe `index`; renews its lease iff
  /// `from` is the node the layout names as that coordinator (a fenced old
  /// coordinator's heartbeats no longer count).
  void Heartbeat(uint32_t index, const net::NodeId& from);

  /// Stripes whose coordinator lease expired and which have a replica to
  /// promote. Marks each returned stripe in-failover so repeated calls don't
  /// plan the same promotion twice; resolve with CommitFailover or
  /// AbortFailover.
  std::vector<FailoverPlan> ExpiredLeases();

  /// Plans a failover for stripe `index` right now (the suspect fast path —
  /// a client or peer reported the coordinator dead and a probe agreed).
  /// kAborted if a failover is already in flight for the stripe;
  /// kFailedPrecondition if there is no replica to promote.
  Result<FailoverPlan> PlanFailover(uint32_t index);

  /// Applies a planned failover: the candidate becomes the stripe's
  /// coordinator under the new fencing epoch with the surviving replicas,
  /// the version bumps, and the stripe's lease re-arms when the new
  /// coordinator first heartbeats.
  Status CommitFailover(const FailoverPlan& plan);

  /// Abandons a planned failover (promotion RPC failed); the lease re-arms
  /// so the monitor retries after another lease period.
  void AbortFailover(uint32_t index);

  /// Plans the eviction of `suspect` from stripe `index`'s replica set (the
  /// coordinator reported it unreachable and a probe agreed). Same
  /// in-flight guard as PlanFailover.
  Result<ReplicaRemoval> PlanReplicaRemoval(uint32_t index,
                                            const net::NodeId& suspect);

  /// Applies a planned eviction: the survivors become the replica set under
  /// the bumped epoch and the version bumps. The coordinator is unchanged,
  /// so its lease keeps running.
  Status CommitReplicaRemoval(const ReplicaRemoval& removal);

  /// Abandons a planned eviction.
  void AbortReplicaRemoval(uint32_t index);

  /// True while stripe `index`'s coordinator holds an unexpired lease.
  bool LeaseHeld(uint32_t index) const { return leases_.Held(index); }

  /// Nanos left on stripe `index`'s coordinator lease (kCtrlStatus).
  std::optional<int64_t> LeaseRemainingNanos(uint32_t index) const {
    return leases_.RemainingNanos(index);
  }

  uint64_t version() const;
  int64_t lease_nanos() const { return leases_.lease_nanos(); }

  // ------------------------------------------------ replicated control plane

  /// Current controller (leadership) epoch.
  uint64_t ctrl_epoch() const;

  /// Highest election epoch this replica granted a vote for.
  uint64_t max_granted_epoch() const;

  /// Adopts `epoch` as the controller epoch if it is higher (durable). A
  /// follower calls this when a leader announces itself; a candidate calls
  /// it after winning an election.
  Status AdoptCtrlEpoch(uint64_t epoch);

  /// Leader-election vote: grants iff `epoch` is strictly higher than both
  /// the current controller epoch and every previously granted epoch. The
  /// grant is persisted before it is returned, so a replica that crashes
  /// and restarts can never hand the same epoch to two candidates.
  Result<bool> GrantVote(uint64_t epoch);

  /// Installs a leader's replicated layout if it is at least as recent as
  /// the local one — layouts are ordered by (ctrl_epoch, version) — and
  /// drops any locally planned (now moot) two-phase plans. kAborted when
  /// the offered layout is older (the sender is the deposed one).
  Status InstallReplicatedState(const ClusterInfo& info);

  /// In-flight (planned, uncommitted) two-phase plans — what a restarted
  /// or newly elected leader must complete or abort before serving.
  std::vector<FailoverPlan> InflightFailovers() const;
  std::vector<ReplicaRemoval> InflightRemovals() const;

 private:
  /// Frames the full durable state to the meta WAL (no-op when not
  /// configured). Call with mu_ held after every durable mutation.
  Status PersistLocked();
  /// Copies the durable state, applies `fn` (which returns Status), and
  /// persists; a persist failure rolls the copy back so memory never runs
  /// ahead of a disk that refused the frame.
  template <typename Fn>
  Status MutateLocked(Fn&& fn);
  bool InFailoverLocked(uint32_t index) const {
    return inflight_failovers_.count(index) != 0 ||
           inflight_removals_.count(index) != 0;
  }

  const ControllerOptions options_;
  mutable std::mutex mu_;
  ClusterInfo info_;
  LeaseTable leases_;
  /// Planned, uncommitted two-phase plans by stripe (durable).
  std::map<uint32_t, FailoverPlan> inflight_failovers_;
  std::map<uint32_t, ReplicaRemoval> inflight_removals_;
  uint64_t max_granted_epoch_ = 0;
  storage::MetaWal wal_;
  bool wal_open_ = false;
};

}  // namespace chariots::flstore

#endif  // CHARIOTS_FLSTORE_CONTROLLER_H_
