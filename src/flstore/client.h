#ifndef CHARIOTS_FLSTORE_CLIENT_H_
#define CHARIOTS_FLSTORE_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/codec.h"
#include "flstore/controller.h"
#include "flstore/read_cache.h"
#include "flstore/indexer.h"
#include "flstore/service.h"
#include "flstore/types.h"
#include "net/retrying_channel.h"
#include "net/rpc.h"

namespace chariots::flstore {

/// Client-side robustness knobs.
struct ClientOptions {
  /// Retry policy for the client's calls. Reads are naturally idempotent;
  /// appends carry a (client_id, seq) token the maintainer dedups on, so
  /// they are safely retried too.
  net::RetryingChannel::Options retry;
  /// Clock used for backoff sleeps; null = system clock.
  Clock* clock = nullptr;
  /// Failover: how many times a maintainer call re-resolves the stripe's
  /// primary from the controller after the channel exhausted its retries
  /// against the node it was talking to. Bounds total unavailability to
  /// roughly attempts * (channel retry budget + backoff).
  int failover_attempts = 8;
  /// Pause before each layout refresh, giving an in-flight failover time to
  /// commit.
  int64_t failover_backoff_nanos = 20'000'000;  // 20 ms
  /// Byte budget of the client-side read-through cache (0 disables it).
  /// Entries below the head of the log are immutable and served locally
  /// forever; tail entries are purged when their stripe's fence epoch
  /// advances (piggybacked on every read response — see read_cache.h).
  uint64_t read_cache_bytes = 4ull << 20;
  /// Replicated control plane: ALL controller replicas. When non-empty it
  /// supersedes the constructor's single `controller` argument; the client
  /// fails its controller channel over across these exactly like it fails
  /// stripe calls over across replicas — a follower's NOT_LEADER redirect
  /// (kUnavailable) rotates to the next replica, and the leader that
  /// answers becomes sticky.
  std::vector<net::NodeId> controllers;
};

/// One controller replica's view of the control plane (the kCtrlStatus
/// dump behind `chariots_cli status`). Any replica answers from its own
/// state, so a follower reports is_leader=false plus whoever it last heard
/// a beat from.
struct ControlPlaneStatus {
  /// Sentinel for "no lease armed" (a lease that exists but already lapsed
  /// reports a negative remaining time instead).
  static constexpr int64_t kNoLease = INT64_MIN;

  uint64_t ctrl_epoch = 0;   ///< controller (fencing) epoch
  uint64_t version = 0;      ///< layout version
  bool is_leader = false;    ///< whether the answering replica leads
  net::NodeId leader;        ///< last known leader ("" = unknown)
  int64_t leader_lease_nanos = kNoLease;  ///< follower's leader-lease age

  struct Stripe {
    net::NodeId coordinator;
    uint64_t fence_epoch = 0;
    int64_t lease_nanos = kNoLease;  ///< coordinator heartbeat lease
    std::vector<net::NodeId> replicas;
  };
  std::vector<Stripe> stripes;  ///< one per maintainer index
};

/// The linked client library of the paper (§3, §5.1): an application client
/// polls the controller once per session for the cluster layout, then talks
/// to maintainers (appends/reads) and indexers (tag lookups) directly.
///
/// Every call retries transient failures (kUnavailable / kTimedOut) with
/// jittered exponential backoff. An append picks its maintainer once and
/// retries *sticky* to that stripe — the dedup window that absorbs the retry
/// is replicated with the batch, so a retry is answered by the original
/// coordinator or by whichever replica got promoted after a failover.
///
/// Reads of a replicated stripe spread round-robin across the coordinator
/// AND its replicas — every replica serves linearizable reads of validated
/// positions — and cycle to the next replica when one is down or answers
/// INVALID_LID (position not validated there yet).
///
/// When a node stops answering, the client reports it to the controller
/// (kSuspect) *synchronously*: the controller probes the node and, if it is
/// really dead, promotes a replica (or evicts the dead replica) inside that
/// call. That is the sub-lease failover path — the client's next attempt
/// lands on the repaired layout without waiting out the lease.
class FLStoreClient {
 public:
  /// `node` is this client's own address on the fabric; `controller` is the
  /// controller's address.
  FLStoreClient(net::Transport* transport, net::NodeId node,
                net::NodeId controller, ClientOptions options = {});
  ~FLStoreClient();

  /// Starts the session: binds the endpoint and fetches cluster info.
  Status Start();
  void Stop();

  /// Appends a record to a (round-robin chosen) maintainer; returns the
  /// post-assigned LId.
  Result<LId> Append(const LogRecord& record);

  /// Appends a batch in one round trip (all records land on one
  /// maintainer, in order); returns their LIds.
  Result<std::vector<LId>> AppendBatch(const std::vector<LogRecord>& records);

  /// Explicit-order append: lands at a position strictly greater than
  /// `min_lid` (paper §5.4). Returns the LId, or kInvalidLId if deferred.
  Result<LId> AppendOrdered(const LogRecord& record, LId min_lid);

  /// Reads a record by its LId, routing via the striping journal. Served
  /// from the local read-through cache when possible.
  Result<LogRecord> Read(LId lid);

  /// Gap-safe read: only positions below the Head of the Log.
  Result<LogRecord> ReadCommitted(LId lid);

  /// Batched read: coalesces the (cache-missing) lids into one kReadRange
  /// call per stripe, so N reads cost at most one round trip per stripe
  /// instead of N. Results come back in input order; NotFound if any lid
  /// has no record.
  Result<std::vector<LogRecord>> ReadMany(const std::vector<LId>& lids);

  /// Current Head of the Log (asks a maintainer).
  Result<LId> HeadOfLog();

  /// Tag lookup via the responsible indexer.
  Result<std::vector<Posting>> Lookup(const IndexQuery& query);

  /// Convenience: look up the matching postings and read their records.
  Result<std::vector<LogRecord>> ReadByTag(const IndexQuery& query);

  /// Re-polls the controller (e.g. after elasticity changed the layout).
  Status RefreshClusterInfo();

  /// Control-plane status as seen by whichever controller replica answers
  /// (sticky leader first; see CallController). Powers `chariots_cli
  /// status`.
  Result<ControlPlaneStatus> ControllerStatus();

  /// The layout this client is currently operating with.
  ClusterInfo cluster_info() const;

  /// Retries performed across all calls (observability/testing): channel
  /// retries plus outer failover-loop retries (the suspect fast path skips
  /// the channel, so its retries are counted here).
  uint64_t retries() const {
    return channel_.retries() +
           outer_retries_.load(std::memory_order_relaxed);
  }

  /// Read-through cache occupancy (observability/testing).
  uint64_t read_cache_entries() const { return read_cache_.entries(); }
  uint64_t read_cache_bytes() const { return read_cache_.bytes(); }

  /// Successful remote reads per serving node (observability: shows how
  /// read load spread across a stripe's coordinator and replicas).
  std::map<net::NodeId, uint64_t> reads_by_node() const;

 private:
  /// Stripe index an append goes to (round-robin). Calls are keyed by
  /// *index*, not node: the index is stable across failover, so a retry
  /// after a layout refresh lands on the stripe's new primary.
  uint32_t IndexForAppend();
  Result<uint32_t> IndexForLId(LId lid);
  /// Calls stripe `index`, failing over when a node is unreachable or
  /// fenced (kUnavailable / kTimedOut): reports the first dead-looking
  /// member to the controller, then (after a backoff on the client clock,
  /// unless the report repaired the layout) refreshes the layout and tries
  /// again. A write goes to the coordinator; its payload — dedup token
  /// included — is reused verbatim, so retried appends stay exactly-once. A
  /// `read` fans over the coordinator and its replicas, rotated per call,
  /// cycling on kUnavailable/kTimedOut (a down or fenced node, or a
  /// position not yet validated there); NotFound is final only when every
  /// member reports it.
  Result<std::string> CallStripe(uint32_t index, uint16_t op,
                                 const std::string& payload, bool read);
  /// Read and ReadCommitted: `op` names which.
  Result<LogRecord> ReadOne(LId lid, uint16_t op);
  /// Synchronous suspect report: asks the controller to probe `node` (of
  /// stripe `index`) and repair the layout if it really is dead. Returns
  /// true when the controller says the layout changed (the client refreshed
  /// and should retry immediately, no backoff).
  bool ReportSuspect(uint32_t index, const net::NodeId& node);
  /// Calls the controller, rotating across replicas on kUnavailable /
  /// kTimedOut (a dead replica or a follower's NOT_LEADER redirect) and
  /// staying sticky on whichever replica answered — normally the leader.
  /// One fast single-shot cycle first, then a cycle through the retrying
  /// channel (backoff) before giving up.
  Result<std::string> CallController(uint16_t op, const std::string& payload,
                                     std::chrono::milliseconds timeout);
  /// Counts a successful remote read against the node that served it.
  void NoteRead(const net::NodeId& node);
  /// Next (client_id, seq) append token; stamped into a BinaryWriter.
  void PutToken(BinaryWriter* w);
  /// Folds one read response's piggybacked (epoch, hl) into the cache and
  /// stores the record bytes under `lid`.
  void CacheReadResponse(LId lid, uint32_t stripe, uint64_t epoch,
                         uint64_t hl, const std::string& rec_bytes);

  net::RpcEndpoint endpoint_;
  /// Controller replicas to rotate across (a single-element vector in the
  /// unreplicated deployment).
  const std::vector<net::NodeId> controllers_;
  /// Index of the controller replica that last answered (sticky leader).
  std::atomic<uint64_t> ctrl_rr_{0};
  const ClientOptions options_;
  Clock* const clock_;
  net::RetryingChannel channel_;
  std::atomic<uint64_t> op_seq_{0};
  /// LId-keyed read-through cache (own internal lock; see read_cache.h).
  ClientReadCache read_cache_;

  mutable std::mutex mu_;
  ClusterInfo info_;
  std::atomic<uint64_t> rr_{0};
  /// Rotates the starting member of each read fan-out so read load spreads
  /// across a stripe's coordinator and replicas.
  std::atomic<uint64_t> read_rr_{0};
  /// Outer failover-loop retries (attempt > 0 in CallStripe); see
  /// retries().
  std::atomic<uint64_t> outer_retries_{0};
  bool started_ = false;
  std::map<net::NodeId, uint64_t> reads_by_node_;
};

}  // namespace chariots::flstore

#endif  // CHARIOTS_FLSTORE_CLIENT_H_
