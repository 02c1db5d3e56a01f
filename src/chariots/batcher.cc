#include "chariots/batcher.h"

#include "common/metrics.h"

namespace chariots::geo {

namespace {

// Stage instruments are process-global (shared by every batcher in every
// in-process datacenter): counters are additive, so no per-instance naming
// is needed. Per-dc gauges live in datacenter.cc.
metrics::Counter* RecordsInCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.batcher.records_in");
  return c;
}

}  // namespace

Batcher::Batcher(const FilterMap* filter_map, DeliverFn deliver)
    : filter_map_(filter_map), deliver_(std::move(deliver)) {}

void Batcher::Submit(GeoRecord record) {
  RecordsInCounter()->Add();
  uint32_t filter_id = filter_map_->FilterFor(record.host, record.toid);
  std::vector<GeoRecord> batch;
  batch.push_back(std::move(record));
  deliver_(filter_id, std::move(batch));
}

}  // namespace chariots::geo
