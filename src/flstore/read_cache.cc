#include "flstore/read_cache.h"

namespace chariots::flstore {

namespace {

// Maintainer tail cache metrics. Counters/gauges are process-wide: a
// process hosting several maintainers reports their aggregate, matching
// the other flstore metric families.
metrics::Counter* TailHits() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.tail_cache.hits");
  return c;
}
metrics::Counter* TailMisses() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.tail_cache.misses");
  return c;
}
metrics::Counter* TailEvictions() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.tail_cache.evictions");
  return c;
}
metrics::Gauge* TailBytes() {
  static metrics::Gauge* g = metrics::Registry::Default().GetGauge(
      "chariots.flstore.tail_cache.bytes");
  return g;
}
metrics::Gauge* TailEntries() {
  static metrics::Gauge* g = metrics::Registry::Default().GetGauge(
      "chariots.flstore.tail_cache.entries");
  return g;
}

// Client read-through cache metrics (the ISSUE 6 acceptance family).
metrics::Counter* ReadHits() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.read_cache.hits");
  return c;
}
metrics::Counter* ReadMisses() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.read_cache.misses");
  return c;
}
metrics::Counter* ReadEvictions() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.read_cache.evictions");
  return c;
}
metrics::Gauge* ReadBytes() {
  static metrics::Gauge* g = metrics::Registry::Default().GetGauge(
      "chariots.flstore.read_cache.bytes");
  return g;
}

}  // namespace

// ------------------------------------------------------------- TailCache

TailCache::TailCache(TailCacheOptions options) : options_(options) {}

void TailCache::EraseLocked(LId lid) {
  auto it = map_.find(lid);
  if (it == map_.end()) return;
  bytes_ -= it->second.size();
  TailBytes()->Add(-static_cast<int64_t>(it->second.size()));
  TailEntries()->Add(-1);
  map_.erase(it);
}

void TailCache::EvictToBoundsLocked() {
  while (!fifo_.empty() &&
         (bytes_ > options_.max_bytes || map_.size() > options_.max_records)) {
    LId victim = fifo_.front();
    fifo_.pop_front();
    if (map_.find(victim) == map_.end()) continue;  // stale fifo key
    EraseLocked(victim);
    TailEvictions()->Add();
  }
}

void TailCache::Put(LId lid, std::string encoded) {
  if (!enabled() || encoded.size() > options_.max_bytes) return;
  std::lock_guard<std::shared_mutex> lock(mu_);
  EraseLocked(lid);  // replace, keeping accounting exact
  bytes_ += encoded.size();
  TailBytes()->Add(static_cast<int64_t>(encoded.size()));
  TailEntries()->Add(1);
  map_.emplace(lid, std::move(encoded));
  fifo_.push_back(lid);
  EvictToBoundsLocked();
}

std::optional<std::string> TailCache::Get(LId lid) const {
  if (!enabled()) return std::nullopt;
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = map_.find(lid);
  if (it == map_.end()) {
    TailMisses()->Add();
    return std::nullopt;
  }
  TailHits()->Add();
  return it->second;
}

void TailCache::Invalidate(LId lid) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  EraseLocked(lid);
}

void TailCache::InvalidateBelow(LId horizon) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  std::vector<LId> doomed;
  for (const auto& [lid, _] : map_) {
    if (lid < horizon) doomed.push_back(lid);
  }
  for (LId lid : doomed) EraseLocked(lid);
}

void TailCache::Clear() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  TailBytes()->Add(-static_cast<int64_t>(bytes_));
  TailEntries()->Add(-static_cast<int64_t>(map_.size()));
  map_.clear();
  fifo_.clear();
  bytes_ = 0;
}

uint64_t TailCache::bytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return bytes_;
}

uint64_t TailCache::entries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return map_.size();
}

// ------------------------------------------------------- ClientReadCache

ClientReadCache::ClientReadCache(uint64_t max_bytes)
    : max_bytes_(max_bytes) {}

void ClientReadCache::EraseLocked(LId lid) {
  auto it = map_.find(lid);
  if (it == map_.end()) return;
  bytes_ -= it->second.encoded.size();
  ReadBytes()->Add(-static_cast<int64_t>(it->second.encoded.size()));
  map_.erase(it);
}

std::optional<std::string> ClientReadCache::Get(LId lid) const {
  if (!enabled()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(lid);
  if (it == map_.end()) {
    ReadMisses()->Add();
    return std::nullopt;
  }
  ReadHits()->Add();
  return it->second.encoded;
}

void ClientReadCache::Put(LId lid, std::string encoded, uint32_t stripe,
                          uint64_t epoch, bool permanent) {
  if (!enabled() || encoded.size() > max_bytes_) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Don't cache under an epoch this cache already knows is stale.
  auto seen = stripe_epochs_.find(stripe);
  if (!permanent && seen != stripe_epochs_.end() && epoch < seen->second) {
    return;
  }
  EraseLocked(lid);
  bytes_ += encoded.size();
  ReadBytes()->Add(static_cast<int64_t>(encoded.size()));
  map_.emplace(lid, CachedRead{std::move(encoded), stripe, epoch, permanent});
  fifo_.push_back(lid);
  while (!fifo_.empty() && bytes_ > max_bytes_) {
    LId victim = fifo_.front();
    fifo_.pop_front();
    if (map_.find(victim) == map_.end()) continue;
    EraseLocked(victim);
    ReadEvictions()->Add();
  }
}

bool ClientReadCache::ObserveEpoch(uint32_t stripe, uint64_t epoch) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t& known = stripe_epochs_[stripe];
  if (epoch <= known) {
    known = std::max(known, epoch);
    return false;
  }
  known = epoch;
  bool purged = false;
  for (auto it = map_.begin(); it != map_.end();) {
    const CachedRead& entry = it->second;
    if (entry.stripe == stripe && !entry.permanent && entry.epoch < epoch) {
      bytes_ -= entry.encoded.size();
      ReadBytes()->Add(-static_cast<int64_t>(entry.encoded.size()));
      ReadEvictions()->Add();
      it = map_.erase(it);
      purged = true;
    } else {
      ++it;
    }
  }
  return purged;
}

void ClientReadCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ReadBytes()->Add(-static_cast<int64_t>(bytes_));
  map_.clear();
  fifo_.clear();
  stripe_epochs_.clear();
  bytes_ = 0;
}

uint64_t ClientReadCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

uint64_t ClientReadCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace chariots::flstore
