#ifndef CHARIOTS_FLSTORE_REPLICA_GROUP_H_
#define CHARIOTS_FLSTORE_REPLICA_GROUP_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "flstore/types.h"
#include "net/rpc.h"

namespace chariots::flstore {

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

/// Opcodes of the replication RPCs. service.h's Opcode enum aliases these;
/// they live here so ReplicaGroup needn't depend on the service layer.
inline constexpr uint16_t kInvalidateRpc = 15;
inline constexpr uint16_t kValidateRpc = 20;

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

/// Hermes-style epoch-fenced broadcast replication for one maintainer
/// stripe (DESIGN.md §12).
///
///  * The coordinator lands a batch locally (marked invalid), then sends an
///    INV carrying the payload to every peer at once. Each ack means
///    "applied and durable here". When the last ack arrives, the coordinator
///    validates the positions (local mark + one-way VAL broadcast) and acks
///    the client — from that completion, not from a waiting thread, so
///    several rounds of one stripe can be in flight together.
///  * Every replica serves reads — but only of *valid* positions, which is
///    what makes the reads linearizable: a valid position is durable on all
///    replicas and can never be junk-filled by a failover.
///  * An epoch rejection from any peer means a higher epoch exists: this
///    node is deposed and self-fences (split-brain safety, unchanged from
///    the primary–backup scheme). A mere transport failure does NOT fence —
///    the write parks as invalid, the caller reports the suspect peer, and
///    the write completes via replay once the controller removes the dead
///    peer (or, if we are the partitioned side, a later epoch rejection or
///    lease expiry fences us).
///  * A replica that sees a *higher* epoch adopts it: promotion replay
///    re-invalidates surviving replicas under the new coordinator's epoch.
///
/// Thread-safe; role/epoch/peer transitions and the fenced latch share one
/// lock.
class ReplicaGroup {
 public:
  ReplicaGroup(net::RpcEndpoint* endpoint, ReplicaOptions options);

  ReplicaRole role() const;
  uint64_t epoch() const;
  bool fenced() const;
  std::vector<net::NodeId> peers() const;

  /// True when this node must broadcast landed records to peers.
  bool replicates() const;

  /// True when this node is part of a multi-node replica set (broadcasting
  /// coordinator or replica) — i.e. when the cacheable HL must be capped at
  /// the validated floor.
  bool in_replica_set() const;

  /// Outcome of one INV round. On a transport failure `unreachable` names
  /// the suspect peer; it is empty otherwise.
  using RoundDone =
      std::function<void(Status status, const net::NodeId& unreachable)>;

  /// Coordinator: invalidate a batch (with its dedup token) on every peer
  /// at once and return; `done` runs once, from the thread that delivers
  /// the deciding INV ack (or times it out), or before this returns when
  /// nothing is in flight. The round costs the slowest peer's round trip,
  /// not the sum of them.
  ///
  /// An epoch rejection from any peer fences this node and decides the
  /// round at once, even when another peer's call failed in transport.
  /// Otherwise, once every peer answered, the first transport failure (in
  /// peer order) fails the round with `unreachable` set: the caller must
  /// fail the client request (kUnavailable) without acking — the landed
  /// entries stay invalid until a replay revalidates them.
  void InvalidateBroadcast(std::vector<ReplicatedEntry> entries,
                           const std::string& client_id, uint64_t seq,
                           const std::string& response, RoundDone done);

  /// Coordinator: fire-and-forget VAL broadcast flipping `lids` readable on
  /// every peer, piggybacking the validated floor. Losing one is harmless —
  /// the positions stay invalid (unreadable) on that replica until a later
  /// VAL or a promotion replay covers them.
  void ValidateBroadcast(const std::vector<LId>& lids, LId floor);

  /// Guard for append-side handlers: OK only when this node is an unfenced
  /// coordinator (or solo). Replicas and fenced nodes get kUnavailable with
  /// a NOT_COORDINATOR marker, which steers the client's failover loop.
  Status CheckAppendServing() const;

  /// Guard for read-side handlers: every unfenced role serves reads (of
  /// valid positions — validity is enforced per-LId by the service layer).
  Status CheckReadServing() const;

  /// Folds the epoch of an incoming invalidate/fetch into this node. Stale
  /// epochs are rejected with kFailedPrecondition (the sender must fence).
  /// A *newer* epoch is adopted — a coordinator demotes itself to replica
  /// (it was deposed; the new coordinator's replay is re-invalidating us).
  Status AcceptRemoteEpoch(uint64_t remote_epoch);

  /// Replica -> coordinator of `peers` under the bumped fencing epoch.
  /// Idempotent: a retry of the same promotion (already coordinator at
  /// `new_epoch`) is OK; an attempt to move backward fails.
  Status Promote(uint64_t new_epoch, std::vector<net::NodeId> peers);

  /// Coordinator: adopt a new replica set under a bumped epoch (the
  /// controller removing a dead peer). Replicas cannot reconfigure.
  Status Reconfigure(uint64_t new_epoch, std::vector<net::NodeId> peers);

  /// Stop serving permanently (until a restart reconfigures the node).
  void Fence();

 private:
  net::RpcEndpoint* const endpoint_;

  mutable std::mutex mu_;
  ReplicaRole role_;
  uint64_t epoch_;
  std::vector<net::NodeId> peers_;
  bool fenced_ = false;
  const std::chrono::milliseconds invalidate_timeout_;
};

}  // namespace chariots::flstore

#endif  // CHARIOTS_FLSTORE_REPLICA_GROUP_H_
