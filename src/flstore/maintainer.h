#ifndef CHARIOTS_FLSTORE_MAINTAINER_H_
#define CHARIOTS_FLSTORE_MAINTAINER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "flstore/read_cache.h"
#include "flstore/striping.h"
#include "flstore/types.h"
#include "storage/log_store.h"

namespace chariots::flstore {

/// Configuration for one log maintainer.
struct MaintainerOptions {
  /// This maintainer's index within the striping.
  uint32_t index = 0;
  /// Initial striping regime(s). All maintainers of a deployment must agree.
  EpochJournal journal{1, 1000};
  /// Storage engine configuration (in-memory or persistent).
  storage::LogStoreOptions store;
  /// Tail-cache bounds (read path, DESIGN.md §11). Zero disables the cache
  /// (the bench baseline); defaults keep the hot tail of a stripe in RAM.
  uint64_t tail_cache_bytes = 4ull << 20;
  uint64_t tail_cache_records = 4096;
};

/// How one write call lands its records (DESIGN.md §12, "Land invalid").
/// The default lands valid and collects nothing.
struct Landing {
  /// Publish every position the call lands invalid, before its bytes reach
  /// the store: no reader and no FirstInvalid() sees it valid before its
  /// Hermes round validates it. A failed landing unmarks it again.
  bool invalid = false;
  /// If set, receives (LId, stored bytes) of every record the call lands,
  /// in landing order — deferred ordered appends it releases included.
  std::vector<ReplicatedEntry>* collect = nullptr;
};

/// A log maintainer (paper §5.2): owns the deterministic round-robin ranges
/// of the shared log given by the epoch journal, persists records, serves
/// reads, and participates in the Head-of-the-Log gossip (§5.4).
///
/// Records reach it two ways, and land through one core:
///  * Append() — *post-assignment*: the maintainer assigns the record the
///    next free position it owns. This is the scalable single-datacenter
///    FLStore path; no cross-maintainer coordination.
///  * AppendAtBatch() — pre-assigned LIds, used by the Chariots queues
///    stage (§6.2), which performs the causal assignment centrally per
///    token and writes each token step's run as one batch.
/// Every write entry point encodes outside any lock, lands all of its
/// records with one group-commit store write or none of them, and takes a
/// trailing Landing.
///
/// Thread-safe. Transport-agnostic: MaintainerServer (service.h) exposes it
/// over RPC and runs the gossip timer.
class LogMaintainer {
 public:
  explicit LogMaintainer(MaintainerOptions options);

  LogMaintainer(const LogMaintainer&) = delete;
  LogMaintainer& operator=(const LogMaintainer&) = delete;

  /// Opens the underlying store (recovering any persisted records, which
  /// also rebuilds the fill state).
  Status Open();

  /// Closes the underlying store (without syncing — models a crash; call
  /// Sync() first for a graceful shutdown). Open() afterwards re-runs
  /// recovery from disk. Deferred ordered appends and peer gossip knowledge
  /// are dropped, as a real restart would drop them.
  Status Close();

  /// Post-assignment append: assigns the next free owned position. A batch
  /// of one.
  Result<LId> Append(const LogRecord& record, const Landing& landing = {});

  /// Batched post-assignment append: assigns the next free owned positions
  /// in record order, persists all records with one group-commit store
  /// write, and updates fill state and gossip once. Deferred ordered
  /// appends the batch carries past their bound land right after it, in the
  /// same write. Returns the assigned LIds in record order. All-or-nothing:
  /// on failure no record is persisted and the assignment cursor has not
  /// moved.
  Result<std::vector<LId>> AppendBatch(std::span<const LogRecord> records,
                                       const Landing& landing = {});

  /// Explicit-order append (paper §5.4): the record is only assigned a
  /// position strictly greater than `min_lid`. If the next free position is
  /// not beyond the bound yet, the record is buffered and assigned once the
  /// log advances. Returns the LId if assigned immediately, or kInvalidLId
  /// if deferred (observer fires when it lands; a later post-assigned
  /// landing releases it under that call's Landing).
  Result<LId> AppendOrdered(const LogRecord& record, LId min_lid,
                            const Landing& landing = {});

  /// Pre-assigned append. Fails with OutOfRange if `lid` is not owned by
  /// this maintainer, AlreadyExists if occupied. A batch of one over
  /// AppendAtBatch.
  Status AppendAt(LId lid, const LogRecord& record,
                  const Landing& landing = {});

  /// Batched pre-assigned append: `records[i]` lands at `lids[i]`. Encodes
  /// outside any lock, then persists the whole batch with one group-commit
  /// store write and updates fill state and gossip once. Readers are not
  /// blocked by the write or its fsync, and see the records only once they
  /// are durable. All-or-nothing:
  /// OutOfRange if any lid is not owned by this maintainer, AlreadyExists if
  /// any is occupied or repeated, or the store's error — and in every such
  /// case nothing is persisted.
  Status AppendAtBatch(std::span<const LId> lids,
                       std::span<const LogRecord> records,
                       const Landing& landing = {});

  /// Fills every owned-but-unfilled position below this maintainer's
  /// assignment cursor with a copy of `junk` (paper §5.3's invalid records).
  /// Used at failover promotion: positions the failed primary assigned but
  /// never replicated would wedge the Head of the Log forever; junk-filling
  /// them lets HL advance, and readers skip records tagged as junk. Returns
  /// the positions filled. A landing still in flight completes first, so
  /// its position is never junk-filled. The fills land as one batch, and the
  /// observer fires for each, so fills replicate and index like any landed
  /// record.
  Result<std::vector<LId>> FillHoles(const LogRecord& junk,
                                     const Landing& landing = {});

  /// Raw read: the record at `lid` regardless of gaps before it. Memory
  /// speed on the hot tail: ownership is checked under a shared lock
  /// (concurrent readers never serialize against each other), the payload
  /// comes from the tail cache when present, and only a cold read falls
  /// through to the segment store's index (pread under the store's own
  /// shared lock — the maintainer lock is NOT held across disk I/O).
  Result<LogRecord> Read(LId lid) const;

  /// Gap-safe read (paper §5.4): fails with Unavailable if `lid >=
  /// HeadOfLog()` — the caller must not observe positions that may still
  /// have gaps before them.
  Result<LogRecord> ReadCommitted(LId lid) const;

  /// First global position owned by this maintainer that is not yet filled
  /// (contiguously): everything this maintainer owns below it is present.
  /// kInvalidLId if the maintainer owns no unfilled positions (it left the
  /// striping in the current epoch and completed its history).
  LId FirstUnfilledGlobal() const;

  /// Ingests a gossip update from peer maintainer `peer_index`.
  void OnGossip(uint32_t peer_index, LId peer_first_unfilled);

  /// The Head of the Log: every position < HL is filled somewhere in the
  /// cluster (min over the gossip vector). Records below HL are safe to
  /// read in log order with no gaps. Lock-free: served from an atomic
  /// refreshed on every gossip/fill-state change.
  LId HeadOfLog() const;

  /// Installs a future striping epoch (live elasticity, §6.3). Waits for a
  /// landing in flight, so a landing plans and publishes under one journal.
  Status AddEpoch(const StripeEpoch& epoch);

  /// Observer called (outside the lock) for every record that lands, with
  /// its assigned LId. Used to publish index postings and to feed senders.
  void SetAppendObserver(std::function<void(const LogRecord&, LId)> observer);

  /// Flushes buffered writes to stable storage.
  Status Sync();

  /// Garbage-collects storage below `horizon` (see LogStore::TruncateBelow).
  Status TruncateBelow(LId horizon, const std::string& archive_path = "");

  /// Sorted LIds currently stored (recovery/diagnostics; O(n log n)).
  std::vector<LId> StoredLids() const;

  /// Removes a stored record (tombstone) and rebuilds the fill/assignment
  /// state. Used by datacenter crash recovery to discard records beyond a
  /// hole in the recovered prefix.
  Status Remove(LId lid);

  /// Drops every tail-cache entry. Called at epoch-fence transitions
  /// (promotion/demotion) so a node changing roles re-reads through the
  /// store instead of serving a possibly-superseded tail.
  void InvalidateTailCache();

  // Hermes write-state tracking (DESIGN.md §12). A position is *invalid*
  // from the moment its record lands under the replication protocol until
  // the validate leg covers it; the service layer refuses to serve reads of
  // invalid positions (they are not yet known durable everywhere). Absent =
  // valid, so records landed outside the protocol (solo stripes, recovery,
  // direct test appends) stay readable. Storage is not consulted: validity
  // is protocol state, not payload state, and it dies with the process —
  // a restarted replica rejoins via reconfiguration, not by trusting a
  // stale validity map. A write call lands invalid through its Landing.

  /// Marks `lid` invalid (INV received / landed but not yet all-acked).
  void MarkInvalid(LId lid);

  /// Marks `lid` valid again (VAL received / all peers acked).
  void MarkValid(LId lid);

  /// Flips every invalid position valid — promotion replay: once the new
  /// coordinator has re-broadcast the surviving invalid entries, everything
  /// it stores is the authoritative copy.
  void MarkAllValid();

  /// True while `lid` is in the invalid window.
  bool IsInvalid(LId lid) const;

  /// Number of positions currently invalid.
  uint64_t InvalidCount() const;

  /// Lowest invalid position (kInvalidLId when none).
  LId FirstInvalid() const;

  /// Snapshot of every invalid position with its encoded record bytes — the
  /// replay set a promoted coordinator re-broadcasts. Positions whose
  /// payload cannot be read back are skipped (they never landed here).
  std::vector<ReplicatedEntry> InvalidEntries() const;

  /// Tail-cache occupancy (test/diagnostic helpers).
  uint64_t TailCacheBytes() const { return tail_cache_.bytes(); }
  uint64_t TailCacheEntries() const { return tail_cache_.entries(); }

  uint64_t count() const;
  uint32_t index() const { return options_.index; }
  EpochJournal journal() const;
  /// Number of ordered appends still waiting for their minimum bound.
  size_t deferred_ordered() const;

 private:
  struct DeferredAppend {
    LogRecord record;
    std::string encoded;
    LId min_lid;
  };

  // The Locked helpers require mu_ held (exclusive if they mutate), except
  // LandLocked, which requires write_mu_ and takes mu_ itself. The journal,
  // the assignment cursor and deferred_ change only under both locks, so
  // NextFreeLocked and PlanLocked may run under either.

  /// First free owned position at or after `cursor` (the next slot to hand
  /// out in each epoch).
  Result<LId> NextFreeLocked(const std::vector<uint64_t>& cursor) const;
  /// Plans a post-assigned landing: the next `n` free positions, then one
  /// for each deferred ordered append they carry past its bound (repeating
  /// in arrival order until none is). Appends the positions to `lids` and
  /// the deferred_ indices to `released`; moves nothing.
  Status PlanLocked(size_t n, std::vector<LId>* lids,
                    std::vector<size_t>* released) const;
  /// The one landing core. Under its first mu_ hold it checks ownership of
  /// the positions in `lids`, or, when `lids` comes in empty, plans them
  /// (appending the released deferred records' positions), and marks them
  /// invalid if `landing` asks. It writes `encoded[i]` at `lids[i]` with one
  /// store batch holding no mu_, then publishes fill state, cursor, gossip
  /// entry and tail cache under mu_ and moves the released deferred records
  /// to `released`. A failed write unmarks its positions and changes
  /// nothing else.
  Status LandLocked(std::vector<LId>* lids, std::vector<std::string> encoded,
                    const Landing& landing, std::vector<LogRecord>* released);
  /// Calls the observer for `records` at `lids` and then for `released`,
  /// whose positions follow in `lids`.
  void Notify(std::span<const LogRecord> records, std::span<const LId> lids,
              const std::vector<LogRecord>& released) const;
  void RebuildStateLocked();
  /// Re-derives the lock-free HL snapshot from gossip_. Must be called
  /// after every mutation of gossip_.
  void RefreshHlLocked();
  void MarkFilledLocked(SlotRef ref);
  LId FirstUnfilledGlobalLocked() const;

  MaintainerOptions options_;

  /// Writer mutex: serializes every landing, FillHoles, AddEpoch, Remove,
  /// TruncateBelow, Sync, Open and Close, and is held across their store
  /// call. Taken before mu_.
  std::mutex write_mu_;
  /// Reader–writer lock: Read/ReadCommitted and the metadata accessors take
  /// it shared; gossip ingestion, epoch changes, validity marks and a
  /// writer's plan and publish take it exclusive. Only Open and Close hold
  /// it across store I/O (DESIGN.md §11).
  mutable std::shared_mutex mu_;
  EpochJournal journal_;
  /// Holds the maintainer's only LId → location index.
  storage::LogStore store_;
  /// Recently appended payloads (own internal lock; see read_cache.h).
  TailCache tail_cache_;
  /// Lock-free HL snapshot (min over gossip_), kept fresh by
  /// RefreshHlLocked so ReadCommitted/HeadOfLog never take mu_.
  std::atomic<LId> hl_cache_{0};
  // Post-assignment cursor: for each epoch, the next slot to hand out.
  // Advances only when a landing publishes.
  std::vector<uint64_t> assign_next_;
  // Fill tracking: contiguous filled slot count per epoch + out-of-order
  // slots (pre-assigned appends may arrive ahead of earlier ones).
  std::vector<uint64_t> filled_contig_;
  std::vector<std::set<uint64_t>> filled_pending_;
  // Gossip vector: first-unfilled global per maintainer (self kept fresh).
  std::vector<LId> gossip_;
  std::deque<DeferredAppend> deferred_;
  /// Positions in the Hermes invalid window (see MarkInvalid). Guarded by
  /// mu_; tiny in steady state (only the in-flight write tail).
  std::set<LId> invalid_;
  std::function<void(const LogRecord&, LId)> observer_;
};

}  // namespace chariots::flstore

#endif  // CHARIOTS_FLSTORE_MAINTAINER_H_
