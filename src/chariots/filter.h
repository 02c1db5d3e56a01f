#ifndef CHARIOTS_CHARIOTS_FILTER_H_
#define CHARIOTS_CHARIOTS_FILTER_H_

#include <functional>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chariots/filter_map.h"
#include "chariots/record.h"

namespace chariots::geo {

/// A filter (paper §6.2): champions a subset of the records (by host
/// datacenter and TOId modulus class) and ensures each record enters the
/// queues stage exactly once and in champion order. Duplicates (sender
/// retransmissions) are dropped; out-of-order arrivals are buffered until
/// the next expected TOId shows up. Filters never talk to each other, so
/// the stage scales without overhead.
class Filter {
 public:
  /// Forwards an accepted record to the queues stage.
  using ForwardFn = std::function<void(GeoRecord)>;

  Filter(uint32_t id, const FilterMap* filter_map, ForwardFn forward);

  Filter(const Filter&) = delete;
  Filter& operator=(const Filter&) = delete;

  /// Processes a batch from a batcher (or receiver). Thread-safe.
  void Accept(std::vector<GeoRecord> batch);

  /// Recovery seeding: everything of `host` up to `last_seen_toid` is
  /// already in the log; this filter's champion stream resumes at its next
  /// championed TOId after that.
  void SeedHost(DatacenterId host, TOId last_seen_toid);

  uint32_t id() const { return id_; }
  /// Records buffered waiting for an earlier TOId.
  size_t buffered() const;

 private:
  struct HostState {
    /// Next championed TOId this filter expects for the host (0 = compute).
    TOId next_expected = 0;
    /// Out-of-order arrivals keyed by TOId.
    std::map<TOId, GeoRecord> buffer;
  };

  void ProcessLocked(GeoRecord record, std::vector<GeoRecord>* out);

  const uint32_t id_;
  const FilterMap* const filter_map_;
  ForwardFn forward_;

  mutable std::mutex mu_;
  std::unordered_map<DatacenterId, HostState> hosts_;
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_FILTER_H_
