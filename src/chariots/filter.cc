#include "chariots/filter.h"

#include "common/metrics.h"

namespace chariots::geo {

namespace {

metrics::Counter* ForwardedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.filter.forwarded");
  return c;
}

metrics::Counter* DuplicatesCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.filter.duplicates_dropped");
  return c;
}

metrics::Counter* MisroutedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.filter.misrouted");
  return c;
}

metrics::Histogram* AcceptLatencyHist() {
  static metrics::Histogram* h =
      metrics::Registry::Default().GetHistogram("chariots.filter.accept_ns");
  return h;
}

}  // namespace

Filter::Filter(uint32_t id, const FilterMap* filter_map, ForwardFn forward)
    : id_(id), filter_map_(filter_map), forward_(std::move(forward)) {}

void Filter::Accept(std::vector<GeoRecord> batch) {
  metrics::ScopedLatencyTimer timer(AcceptLatencyHist());
  std::vector<GeoRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (GeoRecord& record : batch) {
      ProcessLocked(std::move(record), &out);
    }
  }
  ForwardedCounter()->Add(out.size());
  for (GeoRecord& record : out) forward_(std::move(record));
}

void Filter::ProcessLocked(GeoRecord record, std::vector<GeoRecord>* out) {
  // A record this filter does not champion (possible transiently during a
  // future reassignment while batchers catch up): pass it through. The
  // queues re-check order and uniqueness against the token, so liveness is
  // preserved without inter-filter coordination.
  if (filter_map_->FilterFor(record.host, record.toid) != id_) {
    MisroutedCounter()->Add();
    out->push_back(std::move(record));
    return;
  }

  HostState& state = hosts_[record.host];
  if (state.next_expected == 0) {
    state.next_expected = filter_map_->NextChampioned(id_, record.host, 0);
  }

  if (record.toid < state.next_expected) {
    DuplicatesCounter()->Add();
    return;
  }
  if (record.toid > state.next_expected) {
    // Out of order: buffer (idempotently — a duplicate of a buffered record
    // is also dropped).
    if (!state.buffer.try_emplace(record.toid, std::move(record)).second) {
      DuplicatesCounter()->Add();
    }
    return;
  }

  // Exactly the expected record: forward, then drain the buffer.
  DatacenterId host = record.host;
  state.next_expected =
      filter_map_->NextChampioned(id_, host, record.toid);
  out->push_back(std::move(record));
  while (!state.buffer.empty() && state.next_expected != 0) {
    auto it = state.buffer.find(state.next_expected);
    if (it == state.buffer.end()) break;
    state.next_expected =
        filter_map_->NextChampioned(id_, host, it->first);
    out->push_back(std::move(it->second));
    state.buffer.erase(it);
  }
}

void Filter::SeedHost(DatacenterId host, TOId last_seen_toid) {
  std::lock_guard<std::mutex> lock(mu_);
  hosts_[host].next_expected =
      filter_map_->NextChampioned(id_, host, last_seen_toid);
}

size_t Filter::buffered() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [_, state] : hosts_) total += state.buffer.size();
  return total;
}

}  // namespace chariots::geo
