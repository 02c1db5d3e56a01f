#ifndef CHARIOTS_CHARIOTS_REPLICATION_H_
#define CHARIOTS_CHARIOTS_REPLICATION_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <vector>

#include "chariots/atable.h"
#include "chariots/fabric.h"
#include "chariots/record.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/result.h"

namespace chariots::geo {

/// One replication message: the sender's whole awareness table (transitive
/// knowledge piggyback, paper §6.1) plus a run of the sender's local records
/// starting at `first_toid` (empty for pure heartbeats).
struct ReplicationBatch {
  std::string atable;  ///< encoded AwarenessTable
  TOId first_toid = 0;
  std::vector<std::string> records;  ///< encoded GeoRecords, consecutive TOIds
};

std::string EncodeReplicationBatch(const ReplicationBatch& batch);
Result<ReplicationBatch> DecodeReplicationBatch(std::string_view data);

/// The senders stage (paper §6.2): reads local records from the log and
/// ships them to every other datacenter, with the awareness table
/// piggybacked. Everything up to the awareness cell (self, self) — the local
/// records incorporated so far — is sendable. Retransmits from the last
/// *acknowledged* TOId — acknowledgement is simply the peer's awareness row
/// coming back — so datacenter-level failures and partitions heal
/// automatically. A datacenter runs one Sender that owns every destination.
class Sender {
 public:
  /// Returns the encoded local record with TOId `toid`. Only asked for
  /// TOIds above some peer's acknowledgment and at most (self, self).
  using ReadFn = std::function<Result<std::string>(TOId)>;

  struct Options {
    size_t batch_records = 256;
    /// Cadence of the periodic pass (1 ms): rewinds and heartbeats. New
    /// records do not wait for it; Kick() ships them.
    int64_t tick_nanos = 1'000'000;
    int64_t resend_nanos = 50'000'000;      ///< rewind if unacked (50 ms)
    /// Each consecutive rewind without ack progress doubles the rewind
    /// interval up to this cap; progress resets it to resend_nanos. Keeps a
    /// partitioned destination from being blasted with the same batch.
    /// (resend_nanos == 0 disables backoff: rewind on every tick.)
    int64_t resend_max_nanos = 1'000'000'000;
    int64_t heartbeat_nanos = 10'000'000;   ///< ATable-only message (10 ms)
    /// Executor running the periodic send task (null = Executor::Default()).
    Executor* executor = nullptr;
  };

  /// `clock` null means the executor's clock (so a virtual-time executor
  /// automatically drives the backoff/heartbeat arithmetic too).
  Sender(DatacenterId self, std::vector<DatacenterId> destinations,
         ReadFn read, const AwarenessTable* atable, TransportFabric* fabric,
         Options options, Clock* clock = nullptr);
  ~Sender();

  void Start();
  /// Stops the tick and fences Kick: after Stop() returns no drain runs.
  void Stop();

  /// Wakes the sender for newly incorporated local records: schedules one
  /// drain (Tick until it ships nothing) unless one is already pending. The
  /// periodic tick then only has rewinds and heartbeats left to do. No-op
  /// before Start() and after Stop(). Thread-safe.
  void Kick();

  /// One pass over all destinations; returns records shipped. Exposed for
  /// deterministic tests (the periodic executor task just calls this until
  /// it reports idle).
  size_t Tick();

 private:
  struct DestState {
    DatacenterId dc;
    TOId acked = 0;              // peer's awareness of us, last observed
    TOId sent_upto = 0;          // optimistic high-water mark
    int64_t last_send_nanos = 0;
    int64_t last_heartbeat_nanos = 0;
    int64_t resend_interval_nanos = 0;  // current backoff (0 = base)
  };

  const DatacenterId self_;
  const ReadFn read_;
  const AwarenessTable* const atable_;
  TransportFabric* const fabric_;
  const Options options_;
  Executor* const executor_;
  Clock* const clock_;

  std::mutex mu_;
  std::vector<DestState> dests_;
  std::atomic<bool> stop_{true};
  Executor::TimerToken tick_token_;
  /// Fences kicked drains against Stop(); kick_pending_ collapses kicks
  /// that arrive before the drain starts into one task.
  SerialGate kick_gate_;
  std::atomic<bool> kick_pending_{false};
};

/// The receiving half: decodes replication batches from peers, merges the
/// awareness table, and hands records to the local pipeline (batchers
/// stage).
///
/// Two duplicate/overload defenses before the pipeline sees a record:
///  * records the local knowledge vector already covers (retransmitted
///    after the ack was lost) are dropped here — no pipeline work at all;
///    in-flight duplicates deeper in still get dropped by the filters;
///  * the submit callback may *refuse* a record (return false) when the
///    pipeline is congested. Shedding is safe precisely because the sender
///    retransmits everything un-acked — awareness only advances on
///    incorporation, so a shed record is delivered again later.
class Receiver {
 public:
  /// Returns false to shed the record (congestion); true if accepted.
  using SubmitFn = std::function<bool(GeoRecord)>;

  Receiver(DatacenterId self, AwarenessTable* atable, SubmitFn submit);

  /// Fabric handler.
  void OnMessage(DatacenterId from, std::string payload);

 private:
  const DatacenterId self_;
  AwarenessTable* const atable_;
  SubmitFn submit_;
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_REPLICATION_H_
