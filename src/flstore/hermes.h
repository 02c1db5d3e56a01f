#ifndef CHARIOTS_FLSTORE_HERMES_H_
#define CHARIOTS_FLSTORE_HERMES_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "flstore/dedup.h"
#include "flstore/maintainer.h"
#include "flstore/types.h"
#include "net/rpc.h"

namespace chariots::flstore {

/// Registers the chariots.flstore.repl.* metric families (invalidations,
/// validations, replays, mttr_ns) with the default registry so they appear
/// — at zero — in every metrics dump. The registry registers lazily on
/// first use; calling this at server start keeps the family set stable
/// across roles, so dashboards and `chariots_cli metrics PREFIX` behave
/// identically whether or not a node has replicated anything yet.
void RegisterReplicationMetrics();

/// This node's position in its stripe's replica set.
enum class ReplicaRole : uint8_t {
  kSolo = 0,         ///< unreplicated stripe (pre-replication deployments)
  kCoordinator = 1,  ///< assigns positions, drives invalidate/validate rounds
  kReplica = 2,      ///< applies invalidations, serves reads of valid positions
};

/// Payload of a kInvalidate RPC — the INV leg of the Hermes round. Carries
/// the coordinator's fencing epoch (replicas reject anything stale), the
/// batch of landed records (INVs carry the value, so the ack implies the
/// replica holds it durably), and the dedup token + cached response of the
/// client operation that produced them ("" client_id = none), so
/// exactly-once state survives failover: a retry that lands on a promoted
/// replica replays the cached response instead of appending twice.
struct InvalidateRequest {
  uint64_t epoch = 0;
  std::vector<ReplicatedEntry> entries;
  std::string client_id;
  uint64_t seq = 0;
  std::string response;
};

std::string EncodeInvalidateRequest(const InvalidateRequest& req);
Result<InvalidateRequest> DecodeInvalidateRequest(std::string_view data);

/// Payload of the one-way kValidate notify — the VAL leg. Sent after every
/// peer acked the INV, it flips the listed positions readable and carries
/// the coordinator's validated floor (one past the highest all-acked
/// position), which replicas fold into their own cacheable-HL bound.
struct ValidateNotice {
  uint64_t epoch = 0;
  std::vector<LId> lids;
  LId floor = 0;
};

std::string EncodeValidateNotice(const ValidateNotice& notice);
Result<ValidateNotice> DecodeValidateNotice(std::string_view data);

/// Options for one node's view of its stripe replica set.
struct ReplicaOptions {
  ReplicaRole role = ReplicaRole::kSolo;
  /// The stripe's fencing epoch this node believes in. Starts at 1; every
  /// failover promotion or replica-set change bumps it, and a node whose
  /// epoch is rejected as stale must stop serving.
  uint64_t epoch = 1;
  /// The other replicas of this stripe (coordinator role only; replicas
  /// learn the membership when they are promoted or reconfigured).
  std::vector<net::NodeId> peers;
  /// Per-peer budget for one invalidate call. Appends ack only after every
  /// replica durably framed the batch, so this bounds append latency under
  /// a slow peer before the write parks as invalid.
  std::chrono::milliseconds invalidate_timeout{1000};
};

/// Everything Hermes on one member of a maintainer stripe (DESIGN.md §12):
/// membership and epoch, the client-write table, the INV round and its
/// last-ack completion, the validated floor, replay, promotion, and the
/// replica side of INV, VAL and fetch. It has no thread, transport or
/// clock of its own: messages leave through Net, and every input is a call.
///
///  * The coordinator lands a batch locally (marked invalid), then sends an
///    INV carrying the payload to every peer at once. Each ack means
///    "applied and durable here". When the last ack arrives, the coordinator
///    validates the positions (local mark + one-way VAL broadcast) and acks
///    the client — from that completion, not from a waiting thread, so
///    several rounds of one stripe can be in flight together.
///  * Every member serves reads — but only of *valid* positions, which is
///    what makes the reads linearizable: a valid position is durable on all
///    replicas and can never be junk-filled by a failover.
///  * An epoch rejection from any peer means a higher epoch exists: this
///    node is deposed and self-fences (unless the node itself has moved
///    past the round's epoch since; the round then parks). A mere
///    transport failure does NOT fence — the write parks as invalid, the
///    suspect peer is reported, and the write completes via replay once the
///    controller removes the dead peer (or, if we are the partitioned side,
///    a later epoch rejection or lease expiry fences us).
///  * A member that sees a *higher* epoch adopts it: promotion replay
///    re-invalidates surviving replicas under the new coordinator's epoch.
///
/// Membership changes only under the epoch lock, and is published as an
/// immutable snapshot that the append and read paths load with no lock.
/// Thread-safe.
class HermesStripe {
 public:
  /// Where the stripe's messages go. MaintainerServer sends them over RPC;
  /// tests deliver them in an order they choose.
  class Net {
   public:
    virtual ~Net() = default;
    /// Sends `req` to every peer at once. `ack(i, status)` runs once per
    /// peer: OK when peers[i] landed the batch, kFailedPrecondition when it
    /// rejected the epoch, any other error when it could not be reached.
    virtual void Invalidate(const std::vector<net::NodeId>& peers,
                            const InvalidateRequest& req,
                            std::function<void(size_t, Status)> ack) = 0;
    /// One-way VAL to every peer; a lost one is harmless.
    virtual void Validate(const std::vector<net::NodeId>& peers,
                          const ValidateNotice& notice) = 0;
    /// `peer`'s invalid window, one entry per batch with the dedup token it
    /// was replicated with (epoch unset); the peer adopts `epoch` first.
    virtual Result<std::vector<InvalidateRequest>> FetchInvalid(
        const net::NodeId& peer, uint64_t epoch) = 0;
    /// Reports `peer` as unreachable. False when this node is stopping: a
    /// failure caused by our own shutdown says nothing about the peer.
    virtual bool Suspect(const net::NodeId& peer) = 0;
  };

  using Reply = net::RpcEndpoint::Reply;
  using Done = std::function<void(Status)>;
  /// (client_id, seq) dedup token of a client write; "" client_id = none.
  using WriteKey = std::pair<std::string, uint64_t>;
  /// Lands one write's records, all or none, under the given Landing, and
  /// returns what the client gets back once they replicate.
  using LandFn = std::function<Result<std::string>(const Landing&)>;

  /// `round_ns`, if set, receives every INV round's duration on `clock`.
  HermesStripe(LogMaintainer* maintainer, DedupWindow* dedup, Net* net,
               ReplicaOptions options, Clock* clock,
               metrics::Histogram* round_ns = nullptr);

  ReplicaRole role() const { return members().role; }
  uint64_t epoch() const { return members().epoch; }
  bool fenced() const { return fenced_.load(std::memory_order_acquire); }
  /// True when this node must broadcast landed records to peers.
  bool replicates() const { return Replicates(members()); }

  /// OK only when this node is an unfenced coordinator (or solo). Replicas
  /// and fenced nodes get kUnavailable with a NOT_COORDINATOR marker, which
  /// steers the client's failover loop.
  Status CheckAppendServing() const;

  // ------------------------------------------------------------ coordinator

  /// One write: admission, token claim, dedup, landing, then its INV round;
  /// returns once the INVs are out. `reply` gets the result once, from the
  /// round's last ack (for a dedup hit, from the replay of parked writes).
  /// A write whose token is open joins that write's reply instead of
  /// landing again. Untokened writes (kAppendAt, kFill) skip the claim and
  /// the dedup window. Never blocks.
  void Write(const WriteKey& token, const LandFn& land, Reply reply);

  /// Re-broadcasts every invalid (parked) position to the current peers and
  /// validates on success — the replay that completes in-flight writes
  /// after a replica eviction. `done` runs from the round's completion (at
  /// once when nothing is parked).
  void ReplayParked(Done done);

  /// Replica -> coordinator of `peers` under the bumped epoch: merges every
  /// peer's invalid window into ours, junk-fills the true holes, replays
  /// everything invalid and then validates it all. `done` gets the filled
  /// positions. Idempotent under retry.
  void Promote(uint64_t new_epoch, std::vector<net::NodeId> peers,
               std::function<void(Result<std::vector<LId>>)> done);

  /// Coordinator: adopt a new replica set under a bumped epoch (the
  /// controller removing a dead peer). Replicas cannot reconfigure. The
  /// caller replays the parked writes next.
  Status Reconfigure(uint64_t new_epoch, std::vector<net::NodeId> peers);

  // ---------------------------------------------------------------- replica

  /// The INV leg: adopt the sender's epoch (stale rejects with
  /// kFailedPrecondition, newer demotes a deposed coordinator), land the
  /// batch invalid, mirror its dedup token.
  Status OnInvalidate(const InvalidateRequest& req);
  /// The VAL leg: flips the positions readable and folds in the floor, at
  /// this node's exact current epoch only.
  void OnValidate(const ValidateNotice& notice);
  /// Promotion-replay source: adopts `epoch` and returns this node's
  /// invalid window (see Net::FetchInvalid).
  Result<std::vector<InvalidateRequest>> OnFetchInvalid(uint64_t epoch);

  /// Folds a remote epoch into this node: stale is kFailedPrecondition, a
  /// newer one is adopted (a coordinator demotes itself to replica).
  Status AcceptRemoteEpoch(uint64_t remote_epoch);

  /// Stop serving permanently (until a restart reconfigures the node).
  void Fence();

  // ------------------------------------------------------------------ reads

  /// What a read response opens with: the client's read-through cache keys
  /// its invalidation off the epoch, and caches lids below the HL forever.
  struct ReadHeader {
    uint64_t epoch = 0;
    /// Capped at the validated floor on a replicated stripe: a record not
    /// yet validated everywhere can still be junk-filled by a failover.
    LId cacheable_hl = 0;
  };
  /// Read admission: every unfenced role serves reads (of valid
  /// positions); a fenced node answers kUnavailable.
  Result<ReadHeader> AdmitRead() const;
  /// The record at `lid` if it is valid here; kUnavailable INVALID_LID if
  /// not. Validity is checked once the bytes are read: a landing beside
  /// the read may publish them, invalid, before the read finds them.
  /// `committed` also requires `lid` below the Head of the Log.
  Result<LogRecord> ReadValid(LId lid, bool committed) const;

  /// One past the highest position validated everywhere, over the
  /// contiguous prefix.
  LId replicated_floor() const {
    return replicated_floor_.load(std::memory_order_acquire);
  }

 private:
  /// One published view of the replica set. Never changed once published.
  struct Membership {
    ReplicaRole role;
    uint64_t epoch;
    std::vector<net::NodeId> peers;
  };
  /// Outcome of one INV round: OK, or the error and whether the batch
  /// parked (stays invalid here for a replay to finish).
  using RoundDone = std::function<void(Status, bool parked)>;
  struct Round;

  const Membership& members() const {
    return *members_.load(std::memory_order_acquire);
  }
  static bool Replicates(const Membership& m) {
    return m.role == ReplicaRole::kCoordinator && !m.peers.empty();
  }
  /// Publishes `next`; INVs landing at the epoch it leaves count as older.
  /// Caller holds epoch_mu_.
  void PublishLocked(Membership next);
  /// Adopts `remote_epoch` if newer (a coordinator demotes itself), then
  /// waits until no INV admitted at an older epoch is still landing. Caller
  /// holds `lock` on epoch_mu_.
  Status AdoptLocked(uint64_t remote_epoch,
                     std::unique_lock<std::mutex>& lock);
  /// Waits out every INV admitted below the current epoch. Caller holds
  /// `lock` on epoch_mu_.
  void DrainOlderLocked(std::unique_lock<std::mutex>& lock);
  /// Closes the open write of `key`, sending `result` to every reply
  /// waiting on it.
  void CloseWrite(const WriteKey& key, Result<std::string> result);
  /// One Hermes round for a landed batch and its dedup token (`req` at any
  /// epoch; the round stamps the current one): INV to every peer at once,
  /// and from the last ack validate locally, advance the floor, VAL, then
  /// `done`. On a transport failure the batch parks invalid and the suspect
  /// is reported.
  void RunRound(InvalidateRequest req, RoundDone done);
  /// The deciding answer of `round` (its last ack, or an epoch rejection).
  void FinishRound(Round& round, Status status, bool parked);
  /// Lands `entries` invalid; an occupied position is marked invalid again,
  /// and with `overwrite` divergent bytes there are replaced.
  Status LandInvalid(const std::vector<ReplicatedEntry>& entries,
                     bool overwrite);
  /// Promotion up to its replay: adopt, merge the peers' invalid windows,
  /// junk-fill the true holes. Returns the filled positions.
  Result<std::vector<LId>> TakeOver(uint64_t new_epoch,
                                    std::vector<net::NodeId> peers);
  /// Advances the floor over the contiguous validated prefix after a round
  /// topped by `top_lid` was acked by every peer.
  void NoteReplicated(LId top_lid);
  void AdvanceFloor(LId floor);

  LogMaintainer* const maintainer_;
  DedupWindow* const dedup_;
  Net* const net_;
  Clock* const clock_;
  metrics::Histogram* const round_ns_;

  /// The epoch lock: membership is published, INVs are admitted and VALs
  /// act only under it, and never across store I/O.
  std::mutex epoch_mu_;
  std::condition_variable older_drained_;
  /// INVs admitted and still landing: at the current epoch, and at any
  /// older one.
  int landing_current_ = 0;  // guarded by epoch_mu_
  int landing_older_ = 0;    // guarded by epoch_mu_
  /// The dedup token (client_id, seq, response; no entries) of each
  /// position an INV landed here, until it is validated.
  std::map<LId, InvalidateRequest> parked_tokens_;  // guarded by epoch_mu_
  /// Every snapshot ever published: membership changes are rare control
  /// events, so retired ones live until the stripe dies and a reader never
  /// needs a reference count.
  std::vector<std::unique_ptr<const Membership>>
      published_;  // guarded by epoch_mu_
  std::atomic<const Membership*> members_{nullptr};
  std::atomic<bool> fenced_{false};

  /// Client writes whose token is claimed, with every reply waiting on it
  /// (the original request and any retries of its token).
  std::mutex writes_mu_;
  std::map<WriteKey, std::vector<Reply>> open_writes_;

  /// One past the highest position validated everywhere, with every
  /// position below it validated too (monotonic). On the coordinator it
  /// advances as rounds complete; on replicas it follows the VAL piggyback.
  std::atomic<LId> replicated_floor_{0};
  /// One past the highest position of any all-acked round; the floor trails
  /// it while a lower round is open or parked.
  std::atomic<LId> acked_floor_{0};
};

}  // namespace chariots::flstore

#endif  // CHARIOTS_FLSTORE_HERMES_H_
