#ifndef CHARIOTS_APPS_MSGFUTURES_H_
#define CHARIOTS_APPS_MSGFUTURES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chariots/datacenter.h"

namespace chariots::apps {

/// Outcome of a Message Futures transaction.
enum class TxnOutcome { kCommitted, kAborted };

/// A Message-Futures-style transaction record as stored in the log.
struct TxnRecord {
  std::set<std::string> reads;
  std::map<std::string, std::string> writes;
};

std::string EncodeTxnRecord(const TxnRecord& txn);
Result<TxnRecord> DecodeTxnRecord(std::string_view data);

/// Message Futures (paper §4.3, after Nawab et al. CIDR'13): strongly
/// consistent (one-copy serializable) optimistic transactions on top of the
/// causally ordered replicated log — no Paxos round, no central coordinator.
///
/// Protocol as realized here:
///  * A transaction executes optimistically against the locally applied
///    state, buffering writes.
///  * Commit appends the transaction's read/write sets to the log. The
///    record's dependency vector is the *scan clock* at append time: the
///    highest TOId of each datacenter this instance has read from its local
///    log. Appends are serialized, so the vectors are monotone in TOId per
///    datacenter. Before appending, a transaction is validated against
///    every transaction scanned since its first read: if one wrote a key it
///    read, it aborts locally (it never enters the log), because its
///    vector would claim it follows a write it did not see.
///  * Transactions from different datacenters are CONCURRENT iff neither's
///    dependency vector covers the other; same-host transactions are never
///    concurrent (total order). Concurrent transactions CONFLICT if their
///    read/write sets intersect (w/w, r/w, w/r).
///  * Deterministic resolution: a transaction aborts iff some concurrent
///    conflicting transaction has higher priority (smaller (toid, host)).
///    The rule is a pure function of log contents, so every datacenter
///    reaches the same verdict independently — the log IS the agreement.
///  * t's conflict window w.r.t. datacenter B closes once the local log
///    holds any B-record whose dependency vector covers t: dependency
///    vectors are monotone in TOId, so every not-yet-seen B-record is
///    causally after t and cannot be concurrent. Waiting for these markers
///    — each side's history crossing once — is exactly Message Futures'
///    commit latency. For liveness on idle datacenters, Refresh() appends
///    no-op marker records when an undecided remote transaction is waiting
///    for this datacenter's acknowledgment (the paper's continuous log
///    propagation).
class MessageFutures {
 public:
  explicit MessageFutures(geo::Datacenter* dc);
  ~MessageFutures();

  /// A transaction handle. Not thread-safe; one per client session.
  class Txn {
   public:
    /// Reads `key` from the committed state (recorded in the read set).
    /// NotFound reads still record the key (anti-dependency).
    Result<std::string> Get(const std::string& key);

    /// Buffers a write.
    void Put(const std::string& key, const std::string& value);

   private:
    friend class MessageFutures;
    explicit Txn(MessageFutures* mgr) : mgr_(mgr) {}
    MessageFutures* mgr_;
    TxnRecord record_;
    /// Index into txns_ of the first transaction not yet applied when this
    /// one first read the committed state; kNoSnapshot until then.
    size_t snapshot_ = kNoSnapshot;
  };

  Txn Begin() { return Txn(this); }

  /// Runs the commit protocol; blocks until the transaction's fate is
  /// decided (identically at every datacenter) or the timeout passes.
  Result<TxnOutcome> Commit(
      Txn& txn,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Committed value of `key` in the locally applied state.
  Result<std::string> Get(const std::string& key);

  /// Incorporates new log records and decides/applies every transaction
  /// whose conflict window has closed. Called internally by Commit/Get;
  /// exposed so tests can drive it deterministically.
  void Refresh();

  /// Starts a background thread calling Refresh() periodically — needed so
  /// an otherwise idle datacenter still acknowledges remote transactions.
  void StartBackground(int64_t interval_nanos = 1'000'000);

  uint64_t committed() const;
  uint64_t aborted() const;

 private:
  static constexpr size_t kNoSnapshot = SIZE_MAX;

  struct PendingTxn {
    flstore::LId lid;
    geo::DatacenterId host;
    geo::TOId toid;
    geo::DepVector deps;
    TxnRecord record;
  };

  /// Get for a transaction: records its snapshot on the first read.
  Result<std::string> Read(const std::string& key, size_t* snapshot);
  /// Appends `body` tagged `tag_value` with the scan clock as dependency
  /// vector, serialized on append_mu_. A transaction (`txn` non-null) is
  /// validated first; nullopt when it aborts locally.
  std::optional<geo::TOId> Append(std::string body, const char* tag_value,
                                  const Txn* txn);
  /// False if a transaction scanned since `txn`'s snapshot, and not
  /// aborted, wrote a key `txn` read.
  bool ValidLocked(const Txn& txn) const;
  void RefreshLocked(std::vector<std::string>* noops_needed);
  bool WindowClosedLocked(const PendingTxn& t) const;
  TxnOutcome DecideLocked(const PendingTxn& t) const;
  static bool Conflicts(const TxnRecord& a, const TxnRecord& b);

  geo::Datacenter* const dc_;

  /// Orders reading the scan clock with the append that carries it.
  std::mutex append_mu_;
  mutable std::mutex mu_;
  flstore::LId scan_cursor_ = 0;
  /// All transaction records seen, in local lid order; the prefix
  /// [0, apply_cursor_) is decided and applied.
  std::vector<PendingTxn> txns_;
  size_t apply_cursor_ = 0;
  /// Dependency vector of the most recent record incorporated per host
  /// (monotone in TOId) — the window-closing markers.
  std::vector<geo::DepVector> latest_deps_;
  /// Applied key-value state (committed writes only).
  std::map<std::string, std::string> state_;
  std::map<std::pair<geo::DatacenterId, geo::TOId>, TxnOutcome> outcomes_;
  /// Highest remote (host, toid) acknowledgment we already issued a no-op
  /// marker for, to avoid no-op storms.
  std::vector<geo::TOId> noop_issued_;
  uint64_t committed_ = 0;
  /// Aborts decided from the log plus local validation aborts.
  uint64_t aborted_ = 0;

  std::atomic<bool> stop_{false};
  std::thread background_;
};

}  // namespace chariots::apps

#endif  // CHARIOTS_APPS_MSGFUTURES_H_
