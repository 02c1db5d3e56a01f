#include "chariots/queue.h"

#include <algorithm>

#include "common/metrics.h"

namespace chariots::geo {

namespace {

metrics::Counter* AppendedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.queue.appended");
  return c;
}

metrics::Counter* DuplicatesCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.queue.duplicates_dropped");
  return c;
}

metrics::Histogram* ProcessTokenHist() {
  static metrics::Histogram* h = metrics::Registry::Default().GetHistogram(
      "chariots.queue.process_token_ns");
  return h;
}

}  // namespace

GeoQueue::GeoQueue(uint32_t id, RouteFn route)
    : id_(id), route_(std::move(route)) {}

void GeoQueue::Enqueue(GeoRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(std::move(record));
}

bool GeoQueue::Admissible(const Token& token, const GeoRecord& r) const {
  if (r.host >= token.max_toid.size()) return false;
  if (r.toid != token.max_toid[r.host] + 1) return false;
  for (size_t d = 0; d < r.deps.size() && d < token.max_toid.size(); ++d) {
    if (d == r.host) continue;  // own-host dependency is the toid order
    if (r.deps[d] > token.max_toid[d]) return false;
  }
  return true;
}

size_t GeoQueue::ProcessToken(Token* token) {
  metrics::ScopedLatencyTimer timer(ProcessTokenHist());
  // Collect work: newly filtered records plus the token's deferred ones.
  std::vector<GeoRecord> work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    work.swap(pending_);
  }
  work.insert(work.end(), std::make_move_iterator(token->deferred.begin()),
              std::make_move_iterator(token->deferred.end()));
  token->deferred.clear();

  // Sorting by (host, toid) makes each pass admit whole runs.
  std::sort(work.begin(), work.end(),
            [](const GeoRecord& a, const GeoRecord& b) {
              if (a.host != b.host) return a.host < b.host;
              return a.toid < b.toid;
            });

  std::vector<GeoRecord> run;
  bool progress = true;
  std::vector<GeoRecord> rest;
  while (progress) {
    progress = false;
    rest.clear();
    rest.reserve(work.size());
    for (GeoRecord& r : work) {
      if (r.host < token->max_toid.size() &&
          r.toid <= token->max_toid[r.host]) {
        // Already in the log somewhere: retransmission duplicate.
        DuplicatesCounter()->Add();
        continue;
      }
      if (!Admissible(*token, r)) {
        rest.push_back(std::move(r));
        continue;
      }
      r.lid = token->next_lid++;
      token->max_toid[r.host] = r.toid;
      run.push_back(std::move(r));
      progress = true;
    }
    work.swap(rest);
  }

  token->deferred = std::move(work);
  const size_t appended_now = run.size();
  AppendedCounter()->Add(appended_now);
  if (!run.empty()) route_(std::move(run));
  return appended_now;
}

size_t GeoQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

}  // namespace chariots::geo
