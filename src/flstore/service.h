#ifndef CHARIOTS_FLSTORE_SERVICE_H_
#define CHARIOTS_FLSTORE_SERVICE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/executor.h"
#include "common/lease.h"
#include "common/metrics.h"
#include "common/watchdog.h"
#include "flstore/controller.h"
#include "flstore/indexer.h"
#include "flstore/hermes.h"
#include "net/rpc.h"

namespace chariots::flstore {

/// Registers the chariots.flstore.ctrl.* control-plane families (elections,
/// meta_wal_appends, false_suspects, plan_replays): force-registered at
/// server start so they export at zero before the first election or crash.
void RegisterControllerMetrics();

/// RPC opcodes of the FLStore fabric.
enum Opcode : uint16_t {
  kAppend = 1,        ///< record -> u64 lid (post-assignment)
  kAppendAt = 2,      ///< u64 lid + record -> ()
  kAppendOrdered = 3, ///< u64 min_lid + record -> u64 lid (or kInvalidLId)
  kRead = 4,          ///< u64 lid -> u64 epoch + u64 hl + record
  kReadCommitted = 5, ///< u64 lid -> u64 epoch + u64 hl + record (gap-safe)
  kHeadOfLog = 6,     ///< () -> u64 HL
  kAddEpoch = 7,      ///< epoch -> ()
  kGossip = 8,        ///< one-way: u32 index + u64 first_unfilled
  kIndexLookup = 9,   ///< IndexQuery -> postings
  kIndexAdd = 10,     ///< one-way: key + value + u64 lid
  kGetClusterInfo = 11,  ///< () -> ClusterInfo
  kControllerAddMaintainer = 12,  ///< node + epoch + u64 version -> ()
  kAppendBatch = 13,  ///< u32 n + n records -> n u64 lids
  kHeartbeat = 14,    ///< one-way to controller: u32 stripe index
  /// InvalidateRequest -> () — the INV leg of the Hermes round,
  /// coordinator -> replica (carries the payload; the ack means applied +
  /// durable at the replica).
  kInvalidate = 15,
  /// u64 new_epoch + u32 n + n peer nodes -> u32 n + n junk-filled lids
  /// (controller -> promotion candidate). The candidate replays the
  /// surviving invalid writes before junk-filling true holes.
  kPromote = 16,
  kFill = 17,         ///< u64 lid -> () (junk-fill one orphaned position)
  kPeerUpdate = 18,   ///< one-way: u32 index + node (new stripe coordinator)
  /// Batched multi-get: u32 n + n u64 lids -> u64 epoch + u64 hl + u32 n +
  /// n × (u64 lid, u8 found, record if found). One round trip for a whole
  /// coalesced read batch (the client's ReadMany).
  kReadRange = 19,
  /// one-way ValidateNotice — the VAL leg, flipping positions readable on
  /// replicas and piggybacking the coordinator's validated floor.
  kValidate = 20,
  /// u64 epoch -> u32 n + n × InvalidateRequest bytes: a promotion
  /// candidate pulling a surviving replica's invalid window (the replay
  /// set), each entry with the dedup token it was replicated with. The
  /// replica adopts the new epoch as a side effect.
  kFetchInvalid = 21,
  /// u64 new_epoch + u32 n + n peer nodes -> (): controller telling a
  /// coordinator its replica set changed (dead replica evicted).
  kReconfigure = 22,
  /// u32 index + suspect node -> u8 (0 = suspect alive / nothing changed,
  /// 1 = layout changed — refresh). Registered both as a request handler
  /// (clients confirm a dead coordinator synchronously: the failover runs
  /// *inside* the call, which is what makes MTTR sub-lease) and one-way
  /// (coordinators fire-and-forget dead-replica reports mid-append).
  kSuspect = 23,
  /// () -> (): liveness probe; a fenced node answers Unavailable so the
  /// controller treats it as dead.
  kPing = 24,
  /// () -> control-plane status dump: controller epoch + leader + leader
  /// lease age, then per-stripe coordinator/replicas/fence epoch/lease age.
  /// Served by ANY controller replica (each answers from its own view).
  kCtrlStatus = 25,
  /// one-way controller-replica heartbeat: u64 ctrl_epoch + leader node.
  /// Renews the follower's leader lease; a follower whose leader lease
  /// lapses campaigns for the next (striped) epoch.
  kCtrlLeaderBeat = 26,
  /// u64 epoch -> u8 granted + u64 voter ctrl_epoch + u64 voter layout
  /// version. The vote is durable at the voter before the response leaves,
  /// so a crash-restart can never hand one epoch to two candidates; the
  /// piggybacked (ctrl_epoch, version) lets the winner pull a newer layout
  /// it may have missed before serving.
  kCtrlVote = 27,
  /// u64 epoch -> (): leadership confirmation, acked iff the peer knows no
  /// higher epoch (adopted or granted). The leader collects a majority of
  /// acks immediately before every layout commit — which is exactly what
  /// makes a partitioned minority leader unable to promote anything.
  kCtrlConfirm = 28,
  /// ClusterInfo bytes -> (): leader pushing a committed layout to a
  /// follower replica (rejected when older than the follower's view).
  kCtrlReplicateState = 29,
  /// () -> health-report JSON (RenderHealthJson). Served by maintainers and
  /// controllers alike: runs one watchdog tick on demand and returns the
  /// report, so `chariots_cli health` works even on deployments that never
  /// armed the periodic tick.
  kHealth = 30,
  /// u8 mode -> raw flight-recorder dump bytes (Recorder::Dump framing).
  /// Mode 0 (or empty payload) snapshots the rings now; mode 1 returns the
  /// snapshot taken at the last watchdog breach (empty if none fired).
  kFlightRec = 31,
};

/// Wire encoding of a StripeEpoch (used by kAddEpoch /
/// kControllerAddMaintainer requests).
std::string EncodeEpoch(const StripeEpoch& epoch);
Result<StripeEpoch> DecodeEpoch(std::string_view data);

/// Hosts a LogMaintainer on the RPC fabric: serves appends/reads, runs the
/// HL gossip timer, publishes tag postings to the indexers, heartbeats the
/// controller, and carries its HermesStripe's messages (the stripe owns the
/// replication protocol: rounds, epochs, fencing and which reads are
/// served). Its Hermes handlers only decode, call the stripe and encode.
class MaintainerServer : private HermesStripe::Net {
 public:
  struct Options {
    net::NodeId node;                    ///< this server's address
    std::vector<net::NodeId> peers;      ///< all maintainer nodes (by index)
    std::vector<net::NodeId> indexers;   ///< indexer nodes for postings
    int64_t gossip_interval_nanos = 2'000'000;  ///< 2 ms default
    /// Retried-append dedup: responses remembered per client (see
    /// DedupWindow for sizing guidance).
    size_t dedup_window = 128;
    /// Optional dedup persistence sidecar (typically a file next to the
    /// maintainer's segment dir). Empty = dedup state dies with the server.
    std::string dedup_sidecar;
    /// Sidecar compaction threshold (see DedupWindow::Options).
    size_t dedup_compact_min_frames = 64;
    /// Optional scripted disk-fault plan for the dedup sidecar (the log
    /// store takes its own via LogStoreOptions::disk_faults).
    storage::DiskFaultSchedule* dedup_disk_faults = nullptr;
    /// This node's position in its stripe replica set (solo by default, so
    /// unreplicated deployments are unchanged).
    ReplicaOptions replica;
    /// Controller node to heartbeat ("" = no heartbeats; the controller
    /// then never arms a lease for this stripe, and suspect reports have
    /// nowhere to go).
    net::NodeId controller;
    /// Replicated control plane: ALL controller replicas. When non-empty it
    /// supersedes `controller` — heartbeats and suspect reports go to every
    /// replica (followers track leases too, so whoever wins the next
    /// election already knows who is alive; only the leader acts).
    std::vector<net::NodeId> controllers;
    int64_t heartbeat_interval_nanos = 30'000'000;  ///< 30 ms default
    /// Executor running the gossip/heartbeat timers (null =
    /// Executor::Default()). A virtual-time executor makes both loops
    /// test-drivable via AdvanceUntil().
    Executor* executor = nullptr;
    /// Clock for the health watchdog and replication-round timing (null =
    /// SystemClock::Default()). Inject a ManualClock to drive SLO drills in
    /// virtual time.
    Clock* clock = nullptr;
    /// Health-watchdog tick period. 0 (default) leaves the periodic tick
    /// unarmed — the kHealth RPC still evaluates every probe on demand, so
    /// existing deployments and tests are unperturbed.
    int64_t watchdog_interval_nanos = 0;
    /// Replication-round latency SLO: the watchdog breaches when the
    /// windowed mean of this server's INV/VAL round time exceeds it.
    int64_t repl_round_slo_nanos = 50'000'000;  ///< 50 ms
    /// Read-latency SLO over the process-wide flstore.read_ns histogram
    /// (0 = probe not registered; the family is shared across in-process
    /// servers, so only enable it where one server owns the process).
    int64_t read_slo_nanos = 0;
    /// Where the watchdog writes its breach flight-recorder snapshot ("" =
    /// keep it in memory only; kFlightRec mode 1 serves it either way).
    std::string breach_dump_path;
  };

  MaintainerServer(net::Transport* transport, MaintainerOptions maintainer,
                   Options options);
  ~MaintainerServer() override;

  /// Opens the maintainer and begins serving + gossiping (+ heartbeating
  /// when a controller is configured and this node serves its stripe).
  Status Start();
  void Stop();

  /// Crash-and-restart: stops serving, closes the maintainer store and the
  /// dedup window, and starts again — recovering both from disk. Clients
  /// see the outage as kUnavailable/kTimedOut and retry through it.
  Status Restart();

  LogMaintainer& maintainer() { return maintainer_; }
  DedupWindow& dedup() { return dedup_; }
  HermesStripe& replica() { return stripe_; }
  Watchdog& watchdog() { return watchdog_; }

 private:
  void InstallHandlers();
  void GossipOnce();
  void HeartbeatOnce();
  void OnLanded(const LogRecord& record, LId lid);
  void PublishPostings(const LogRecord& record, LId lid);
  /// Lands one append-side request's records, all or none, under the given
  /// Landing, and returns what the client gets back once they replicate.
  /// Reads the request past its dedup token.
  using LandFn =
      std::function<Result<std::string>(BinaryReader& r, const Landing&)>;
  /// Registers an append-side handler: decode the token, then the stripe's
  /// Write, which replies from the replication round's completion.
  void HandleWrite(uint16_t type, bool tokened, LandFn land,
                   net::RpcEndpoint::Dispatch dispatch =
                       net::RpcEndpoint::Dispatch::kQueued);

  // HermesStripe::Net over repl_endpoint_.
  void Invalidate(const std::vector<net::NodeId>& peers,
                  const InvalidateRequest& req,
                  std::function<void(size_t, Status)> ack) override;
  void Validate(const std::vector<net::NodeId>& peers,
                const ValidateNotice& notice) override;
  Result<std::vector<InvalidateRequest>> FetchInvalid(
      const net::NodeId& peer, uint64_t epoch) override;
  /// A fire-and-forget report to every controller replica (none when none
  /// is configured), sent from the failed round's completion.
  bool Suspect(const net::NodeId& suspect) override;
  /// The controller replicas this node talks to (options_.controllers, or
  /// the single legacy options_.controller).
  std::vector<net::NodeId> ControllerTargets() const;
  /// Controller-epoch fence (PR 3 idiom, lifted to the control plane):
  /// folds `epoch` into the highest controller epoch this node has ever
  /// seen and rejects commands below it — a deposed controller leader's
  /// promotion or reconfiguration must not move a stripe.
  Status CheckCtrlEpoch(uint64_t epoch);

  LogMaintainer maintainer_;
  Options options_;
  Executor* const executor_;
  net::RpcEndpoint endpoint_;
  /// Dedicated endpoint (`<node>#repl`) for outbound replication traffic:
  /// INV rounds, promotion fetches and suspect reports.
  net::RpcEndpoint repl_endpoint_;
  DedupWindow dedup_;
  /// This server's own replication-round latency (server-local, unlike the
  /// registry's process-wide families): feeds the watchdog's SLO probe, so
  /// a breach names THIS stripe even with many servers in one process.
  metrics::Histogram repl_round_ns_;
  HermesStripe stripe_;
  std::atomic<bool> stop_{false};
  Executor::TimerToken gossip_token_;
  Executor::TimerToken heartbeat_token_;
  /// Maintainer nodes by stripe index; starts as options_.peers and is
  /// updated by kPeerUpdate when the controller commits a failover.
  std::mutex peers_mu_;
  std::vector<net::NodeId> peers_;
  /// Highest controller epoch observed in any layout/promotion RPC.
  std::atomic<uint64_t> ctrl_epoch_seen_{0};
  /// Gossip rounds completed — the progress probe's counter.
  std::atomic<uint64_t> gossip_rounds_{0};
  Watchdog watchdog_;
};

/// Hosts an Indexer on the RPC fabric.
class IndexerServer {
 public:
  IndexerServer(net::Transport* transport, net::NodeId node);
  ~IndexerServer();

  Status Start();
  void Stop();

  Indexer& indexer() { return indexer_; }

 private:
  Indexer indexer_;
  net::RpcEndpoint endpoint_;
};

/// Knobs for the hosted controller.
struct ControllerServerOptions {
  ControllerOptions controller;
  /// Interval of the background lease monitor; 0 disables it (tests drive
  /// failover deterministically via TickLeases() / TickControl()).
  int64_t monitor_interval_nanos = 0;
  /// Executor running the lease monitor (null = Executor::Default()).
  Executor* executor = nullptr;
  /// The OTHER controller replicas (empty = single-controller deployment,
  /// which starts as leader immediately — the pre-HA behavior).
  std::vector<net::NodeId> peers;
  /// This replica's index in the controller cluster (0..N-1, where N =
  /// peers.size() + 1). Election epochs are striped by this index — replica
  /// i only ever campaigns with epochs e where e % N == i — so two
  /// simultaneous candidates can never collide on one epoch number.
  uint32_t replica_index = 0;
  /// How long a follower waits without hearing a leader beat before it
  /// campaigns. Runs on the controller's injected clock.
  int64_t leader_lease_nanos = 300'000'000;  // 300 ms
  /// Probe (kPing) a coordinator whose lease expired before evicting it:
  /// a node that still answers is alive — its heartbeats are partitioned
  /// away (one-way cut) or merely late — and promoting over it would be a
  /// false eviction. Default off: the classic lease contract treats a full
  /// lease of silence as death, and some deployments prefer that MTTR over
  /// gray-failure tolerance. The kSuspect fast path always probes.
  bool probe_before_failover = false;
  /// Health-watchdog tick period (0 = on-demand via kHealth only, the
  /// default — same contract as MaintainerServer::Options).
  int64_t watchdog_interval_nanos = 0;
  /// Election-churn budget: the watchdog breaches when more than this many
  /// elections are won in one tick (a flapping leader, dueling candidates).
  uint64_t max_elections_per_tick = 2;
  /// Where the watchdog writes its breach flight-recorder snapshot ("" =
  /// keep it in memory only).
  std::string breach_dump_path;
};

/// Hosts the Controller on the RPC fabric: serves cluster info and
/// membership changes, collects coordinator heartbeats, and runs failover
/// two ways — the lease monitor as backstop, and the kSuspect fast path
/// (probe the reported node, then promote a replica or evict a dead one
/// inside the call), which is what gets MTTR under the lease.
class ControllerServer {
 public:
  ControllerServer(net::Transport* transport, net::NodeId node,
                   ClusterInfo initial, ControllerServerOptions options = {});
  ~ControllerServer();

  Status Start();
  void Stop();

  /// One failure-detection sweep: for every stripe whose coordinator lease
  /// expired, deliver the promotion RPC to the first replica and, on
  /// success, commit the new layout and broadcast it to the surviving
  /// maintainers. Returns the number of failovers committed. Leader-only
  /// (a follower sweep returns 0 without acting). Public so tests (and the
  /// disabled-monitor deployment) can drive failover deterministically.
  int TickLeases();

  /// One control-plane tick: a leader broadcasts its beat and sweeps
  /// leases; a follower whose leader lease lapsed campaigns. This is what
  /// the background monitor runs. Returns committed failovers.
  int TickControl();

  /// Runs one election for the next epoch striped to this replica: the
  /// self-vote is persisted, peers vote (durably) over kCtrlVote, and a
  /// majority — counting self — makes this replica leader: it adopts the
  /// epoch, pulls any newer layout a voter advertised, announces itself,
  /// and completes plans recovered from the meta WAL. kAborted on a lost
  /// election (the leader lease re-arms to back off a full period).
  Status Campaign();

  bool IsLeader() const;
  /// Last known leader ("" when unknown).
  net::NodeId leader() const;

  Controller& controller() { return controller_; }
  Watchdog& watchdog() { return watchdog_; }

 private:
  /// kUnavailable("NOT_LEADER...") unless this replica is leader — the
  /// redirect non-leader replicas give every mutating RPC; clients treat it
  /// as retryable and rotate their controller channel.
  Status RequireLeader() const;
  /// Majority confirmation that no peer knows a higher epoch, collected
  /// immediately before every layout commit. A minority-partitioned leader
  /// fails here and commits nothing.
  Status ConfirmLeadership();
  /// Best-effort push of the committed layout to every follower.
  void ReplicateState();
  /// One-way leader announcement to every peer.
  void BroadcastBeat();
  /// Follower side of kCtrlLeaderBeat.
  void OnLeaderBeat(uint64_t epoch, const net::NodeId& from);
  /// Re-drives every in-flight two-phase plan recovered from the meta WAL
  /// (or inherited at election) to completion or abort. Returns how many
  /// plans were resolved.
  int CompleteRecoveredPlans();
  /// Delivers a planned promotion and commits it (aborting on failure);
  /// broadcasts the new layout on success. With `recheck_lease` set (the
  /// lease-expiry and recovered-plan paths), a stripe lease renewed between
  /// planning and acting aborts the plan — the coordinator is demonstrably
  /// alive again (a healed partition), so evicting it would be wrong. The
  /// suspect fast path passes false: its premise is a liveness probe that
  /// just failed, and the lease may well still be held (that is what makes
  /// it sub-lease).
  Status ExecuteFailover(const FailoverPlan& plan, bool recheck_lease);
  /// Delivers a planned replica eviction and commits it (same two-phase
  /// shape as ExecuteFailover).
  Status ExecuteRemoval(const ReplicaRemoval& removal);
  /// The kSuspect body, shared by the request and one-way registrations.
  Result<std::string> HandleSuspect(const std::string& payload);

  Controller controller_;
  ControllerServerOptions options_;
  Executor* const executor_;
  const net::NodeId node_;
  net::RpcEndpoint endpoint_;
  /// Follower's view of leader liveness: key 0, renewed by every beat (and
  /// by granting a vote), armed at Start so a dead initial leader is
  /// detected. Runs on the controller's injected clock.
  LeaseTable leader_lease_;
  mutable std::mutex lead_mu_;
  net::NodeId leader_;
  bool is_leader_ = false;
  std::atomic<bool> stop_{false};
  Executor::TimerToken monitor_token_;
  Watchdog watchdog_;
};

}  // namespace chariots::flstore

#endif  // CHARIOTS_FLSTORE_SERVICE_H_
