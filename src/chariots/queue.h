#ifndef CHARIOTS_CHARIOTS_QUEUE_H_
#define CHARIOTS_CHARIOTS_QUEUE_H_

#include <functional>
#include <mutex>
#include <vector>

#include "chariots/record.h"
#include "flstore/types.h"

namespace chariots::geo {

/// The token circulating among the queues (paper §6.2): the single point of
/// truth for LId assignment. Carries the maximum TOId per datacenter already
/// incorporated into the local log, the next LId to hand out, and the
/// deferred records whose causal dependencies are not yet satisfied.
struct Token {
  std::vector<TOId> max_toid;
  flstore::LId next_lid = 0;
  std::vector<GeoRecord> deferred;

  explicit Token(uint32_t num_datacenters)
      : max_toid(num_datacenters, 0) {}
};

/// A queue (paper §6.2): buffers filtered records; when holding the token it
/// admits every record whose causal dependencies are satisfied — assigning
/// consecutive LIds, so the log below `next_lid` is gap-free by construction
/// — routes them as one run, and defers the rest into the token.
///
/// Admission rule for record r (host h, toid t, deps d[]):
///   * t ≤ token.max_toid[h]  → duplicate, dropped;
///   * t == token.max_toid[h] + 1  AND  d[k] ≤ token.max_toid[k] ∀k  →
///     admitted (total order per host + happened-before, paper §3);
///   * otherwise deferred.
class GeoQueue {
 public:
  /// Receives the run a token step admitted: records with their LIds filled
  /// in, consecutive and in LId order. Called at most once per step.
  using RouteFn = std::function<void(std::vector<GeoRecord> run)>;

  GeoQueue(uint32_t id, RouteFn route);

  GeoQueue(const GeoQueue&) = delete;
  GeoQueue& operator=(const GeoQueue&) = delete;

  /// Stashes a record until this queue next holds the token. Thread-safe.
  void Enqueue(GeoRecord record);

  /// Runs the token protocol over everything pending + previously deferred,
  /// then routes the admitted run (if any) once. Returns the number of
  /// records admitted this turn.
  size_t ProcessToken(Token* token);

  uint32_t id() const { return id_; }
  size_t pending() const;

 private:
  bool Admissible(const Token& token, const GeoRecord& r) const;

  const uint32_t id_;
  RouteFn route_;

  mutable std::mutex mu_;
  std::vector<GeoRecord> pending_;
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_QUEUE_H_
