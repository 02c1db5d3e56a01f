#ifndef CHARIOTS_FLSTORE_READ_CACHE_H_
#define CHARIOTS_FLSTORE_READ_CACHE_H_

// The memory-speed read path's caches (DESIGN.md §11):
//
//  * TailCache — maintainer-side bounded FIFO of recently appended record
//    payloads, populated by the append path, so reads of the hot tail never
//    touch the segment store.
//  * ClientReadCache — client-side read-through cache keyed by LId, with
//    epoch-based invalidation driven by the (fence epoch, head-of-log)
//    pair piggybacked on every read response.
//
// Both are byte-bounded and safe for concurrent use; both export the PR 4
// metric families so cache efficiency shows up in every bench report.

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "flstore/types.h"

namespace chariots::flstore {

/// Sizing knobs for a TailCache. Either bound at zero disables the cache
/// entirely (Put/Get become no-ops), which is the bench baseline mode.
struct TailCacheOptions {
  uint64_t max_bytes = 4ull << 20;  ///< payload-byte budget
  uint64_t max_records = 4096;      ///< entry-count budget
};

/// Bounded FIFO cache of encoded log records, keyed by LId. The append path
/// Put()s every landed record; eviction walks insertion order, so the cache
/// always holds the newest tail of this maintainer's log. A record larger
/// than the whole byte budget is never admitted.
///
/// Thread-safe behind its own mutex — deliberately separate from the
/// maintainer lock so cache hits never contend with appends.
class TailCache {
 public:
  explicit TailCache(TailCacheOptions options);

  TailCache(const TailCache&) = delete;
  TailCache& operator=(const TailCache&) = delete;

  bool enabled() const {
    return options_.max_bytes > 0 && options_.max_records > 0;
  }

  /// Inserts (or replaces) the encoded record at `lid`, evicting the oldest
  /// entries until both bounds hold again.
  void Put(LId lid, std::string encoded);

  /// Returns the encoded record, counting a hit or miss.
  std::optional<std::string> Get(LId lid) const;

  /// Drops one entry (hole repair / tombstone) — a later Get misses.
  void Invalidate(LId lid);

  /// Drops every entry below `horizon` (garbage collection).
  void InvalidateBelow(LId horizon);

  /// Drops everything. Called on close and at epoch-fence transitions
  /// (promotion), so a node changing roles never serves a stale tail.
  void Clear();

  uint64_t bytes() const;
  uint64_t entries() const;

 private:
  void EvictToBoundsLocked();
  void EraseLocked(LId lid);

  const TailCacheOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<LId, std::string> map_;
  std::deque<LId> fifo_;  ///< insertion order; may hold stale keys
  uint64_t bytes_ = 0;
};

/// One cached read on the client. Entries below the head of the log at
/// fetch time are `permanent`: that region of the log is immutable (holes
/// are only junk-filled *above* HL), so they survive failover. Entries at
/// or beyond HL are tagged with the serving primary's fence epoch and are
/// purged the moment a newer epoch is observed for their stripe — a
/// demoted primary's tail can be junk-filled by its successor.
struct CachedRead {
  std::string encoded;
  uint32_t stripe = 0;
  uint64_t epoch = 0;
  bool permanent = false;
};

/// Client-side read-through cache keyed by LId, byte-bounded with FIFO
/// eviction. Invalidation is epoch-driven (Hermes-style explicit
/// invalidation rather than TTLs): every read response carries the stripe's
/// fence epoch, and ObserveEpoch() purges non-permanent entries of a stripe
/// whose epoch advanced. max_bytes == 0 disables the cache.
class ClientReadCache {
 public:
  explicit ClientReadCache(uint64_t max_bytes);

  ClientReadCache(const ClientReadCache&) = delete;
  ClientReadCache& operator=(const ClientReadCache&) = delete;

  bool enabled() const { return max_bytes_ > 0; }

  std::optional<std::string> Get(LId lid) const;

  void Put(LId lid, std::string encoded, uint32_t stripe, uint64_t epoch,
           bool permanent);

  /// Folds a piggybacked (stripe, fence epoch) observation in. If the epoch
  /// advanced past what this cache has seen for the stripe, every
  /// non-permanent entry of the stripe is purged (they may have been
  /// junk-filled or re-served by a promoted backup). Returns true if a
  /// purge happened.
  bool ObserveEpoch(uint32_t stripe, uint64_t epoch);

  void Clear();

  uint64_t bytes() const;
  uint64_t entries() const;

 private:
  void EraseLocked(LId lid);

  const uint64_t max_bytes_;

  mutable std::mutex mu_;
  std::unordered_map<LId, CachedRead> map_;
  std::deque<LId> fifo_;
  std::unordered_map<uint32_t, uint64_t> stripe_epochs_;
  uint64_t bytes_ = 0;
};

}  // namespace chariots::flstore

#endif  // CHARIOTS_FLSTORE_READ_CACHE_H_
