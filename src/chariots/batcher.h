#ifndef CHARIOTS_CHARIOTS_BATCHER_H_
#define CHARIOTS_CHARIOTS_BATCHER_H_

#include <functional>
#include <vector>

#include "chariots/filter_map.h"
#include "chariots/record.h"

namespace chariots::geo {

/// A batcher (paper §6.2): receives records created locally or replicated
/// from remote datacenters and routes each to the filter championing it.
/// It holds nothing back: Submit hands the record straight to the filter's
/// inbox, and the batch forms there while the filter is busy — its drain
/// pops the whole inbox into one Accept (DESIGN.md §6.2). No size threshold
/// and no flush timer, so no record waits for a clock. Batchers are
/// completely independent of each other — adding one requires no
/// coordination.
class Batcher {
 public:
  /// Delivers records to filter `filter_id`.
  using DeliverFn =
      std::function<void(uint32_t filter_id, std::vector<GeoRecord> batch)>;

  Batcher(const FilterMap* filter_map, DeliverFn deliver);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Routes `record` to its championing filter. Thread-safe.
  void Submit(GeoRecord record);

 private:
  const FilterMap* const filter_map_;
  DeliverFn deliver_;
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_BATCHER_H_
