#include "apps/msgfutures.h"

#include <algorithm>

#include "common/codec.h"
#include "common/executor.h"

namespace chariots::apps {

namespace {
constexpr char kTxnTag[] = "mf";
constexpr char kTxnTagValue[] = "txn";
constexpr char kNoopTagValue[] = "noop";
}  // namespace

std::string EncodeTxnRecord(const TxnRecord& txn) {
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(txn.reads.size()));
  for (const std::string& key : txn.reads) w.PutBytes(key);
  w.PutU32(static_cast<uint32_t>(txn.writes.size()));
  for (const auto& [key, value] : txn.writes) {
    w.PutBytes(key);
    w.PutBytes(value);
  }
  return std::move(w).data();
}

Result<TxnRecord> DecodeTxnRecord(std::string_view data) {
  BinaryReader r(data);
  TxnRecord txn;
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string key;
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&key));
    txn.reads.insert(std::move(key));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string key, value;
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&key));
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&value));
    txn.writes.emplace(std::move(key), std::move(value));
  }
  return txn;
}

MessageFutures::MessageFutures(geo::Datacenter* dc)
    : dc_(dc),
      latest_deps_(dc->config().num_datacenters,
                   geo::DepVector(dc->config().num_datacenters, 0)),
      noop_issued_(dc->config().num_datacenters, 0) {}

MessageFutures::~MessageFutures() {
  stop_.store(true);
  if (background_.joinable()) background_.join();
}

void MessageFutures::StartBackground(int64_t interval_nanos) {
  background_ = std::thread([this, interval_nanos] {
    ScopedRuntimeThread census("msgf/refresh");
    while (!stop_.load(std::memory_order_relaxed)) {
      Refresh();
      std::this_thread::sleep_for(std::chrono::nanoseconds(interval_nanos));
    }
  });
}

Result<std::string> MessageFutures::Txn::Get(const std::string& key) {
  record_.reads.insert(key);
  // Read-your-own-writes within the transaction.
  auto it = record_.writes.find(key);
  if (it != record_.writes.end()) return it->second;
  return mgr_->Read(key, &snapshot_);
}

void MessageFutures::Txn::Put(const std::string& key,
                              const std::string& value) {
  record_.writes[key] = value;
}

Result<std::string> MessageFutures::Get(const std::string& key) {
  size_t snapshot = kNoSnapshot;
  return Read(key, &snapshot);
}

Result<std::string> MessageFutures::Read(const std::string& key,
                                         size_t* snapshot) {
  Refresh();
  std::lock_guard<std::mutex> lock(mu_);
  if (*snapshot == kNoSnapshot) *snapshot = apply_cursor_;
  auto it = state_.find(key);
  if (it == state_.end()) return Status::NotFound("key: " + key);
  return it->second;
}

bool MessageFutures::Conflicts(const TxnRecord& a, const TxnRecord& b) {
  for (const auto& [key, _] : a.writes) {
    if (b.writes.count(key) || b.reads.count(key)) return true;
  }
  for (const std::string& key : a.reads) {
    if (b.writes.count(key)) return true;
  }
  return false;
}

bool MessageFutures::WindowClosedLocked(const PendingTxn& t) const {
  // Closed w.r.t. every other datacenter once its latest incorporated
  // record's dependency vector covers t (see class comment).
  for (uint32_t b = 0; b < latest_deps_.size(); ++b) {
    if (b == t.host) continue;
    if (t.host < latest_deps_[b].size() &&
        latest_deps_[b][t.host] < t.toid) {
      return false;
    }
  }
  return true;
}

TxnOutcome MessageFutures::DecideLocked(const PendingTxn& t) const {
  for (const PendingTxn& u : txns_) {
    if (u.host == t.host) continue;  // same host: totally ordered
    // Concurrency: neither dependency vector covers the other.
    bool u_after_t = u.host < t.deps.size() && u.toid <= t.deps[u.host];
    bool t_after_u = t.host < u.deps.size() && t.toid <= u.deps[t.host];
    if (u_after_t || t_after_u) continue;
    if (!Conflicts(t.record, u.record)) continue;
    // Deterministic priority: smaller (toid, host) survives.
    if (std::make_pair(u.toid, u.host) < std::make_pair(t.toid, t.host)) {
      return TxnOutcome::kAborted;
    }
  }
  return TxnOutcome::kCommitted;
}

void MessageFutures::Refresh() {
  std::vector<std::string> noops;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshLocked(&noops);
  }
  // Appending no-ops outside the lock: their dependency vectors acknowledge
  // every remote transaction scanned so far.
  for (std::string& marker : noops) {
    Append(std::move(marker), kNoopTagValue, nullptr);
  }
}

bool MessageFutures::ValidLocked(const Txn& txn) const {
  if (txn.snapshot_ == kNoSnapshot) return true;  // read nothing committed
  for (size_t i = txn.snapshot_; i < txns_.size(); ++i) {
    const PendingTxn& u = txns_[i];
    auto outcome = outcomes_.find({u.host, u.toid});
    if (outcome != outcomes_.end() &&
        outcome->second == TxnOutcome::kAborted) {
      continue;
    }
    for (const auto& [key, _] : u.record.writes) {
      if (txn.record_.reads.count(key) != 0) return false;
    }
  }
  return true;
}

std::optional<geo::TOId> MessageFutures::Append(std::string body,
                                                const char* tag_value,
                                                const Txn* txn) {
  // Two appends reading the clock in one order and taking TOIds in the
  // other would give a later record an older vector, and a remote
  // transaction's window could close before a concurrent one arrives.
  std::lock_guard<std::mutex> append_lock(append_mu_);
  geo::DepVector deps(latest_deps_.size(), 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (txn != nullptr && !ValidLocked(*txn)) {
      ++aborted_;
      return std::nullopt;
    }
    for (size_t h = 0; h < deps.size(); ++h) deps[h] = latest_deps_[h][h];
  }
  return dc_->Append(std::move(body), {{kTxnTag, tag_value}},
                     std::move(deps));
}

void MessageFutures::RefreshLocked(std::vector<std::string>* noops_needed) {
  // 1. Ingest new log records.
  std::vector<geo::GeoRecord> fresh = dc_->ReadRange(scan_cursor_, SIZE_MAX);
  for (geo::GeoRecord& record : fresh) {
    scan_cursor_ = record.lid + 1;
    if (record.host < latest_deps_.size()) {
      geo::DepVector& latest = latest_deps_[record.host];
      for (size_t d = 0; d < record.deps.size() && d < latest.size(); ++d) {
        latest[d] = std::max(latest[d], record.deps[d]);
      }
      // A record is also its host's own acknowledgment point.
      if (record.host < latest.size()) {
        latest[record.host] = std::max(latest[record.host], record.toid);
      }
    }
    bool is_txn = false;
    for (const flstore::Tag& tag : record.tags) {
      if (tag.key == kTxnTag && tag.value == kTxnTagValue) {
        is_txn = true;
        break;
      }
    }
    if (!is_txn) continue;
    Result<TxnRecord> txn = DecodeTxnRecord(record.body);
    if (!txn.ok()) continue;
    txns_.push_back(PendingTxn{record.lid, record.host, record.toid,
                               record.deps, std::move(txn).value()});
  }

  // 2. Decide and apply the closed prefix, in local log order.
  while (apply_cursor_ < txns_.size()) {
    PendingTxn& t = txns_[apply_cursor_];
    if (!WindowClosedLocked(t)) break;
    TxnOutcome outcome = DecideLocked(t);
    outcomes_[{t.host, t.toid}] = outcome;
    if (outcome == TxnOutcome::kCommitted) {
      for (const auto& [key, value] : t.record.writes) state_[key] = value;
      ++committed_;
    } else {
      ++aborted_;
    }
    ++apply_cursor_;
  }

  // 3. Liveness: if an undecided remote transaction waits for *our*
  // acknowledgment, emit one no-op marker record.
  for (size_t i = apply_cursor_; i < txns_.size(); ++i) {
    const PendingTxn& t = txns_[i];
    if (t.host == dc_->dc_id()) continue;
    geo::DepVector& ours = latest_deps_[dc_->dc_id()];
    if (t.host < ours.size() && ours[t.host] < t.toid &&
        noop_issued_[t.host] < t.toid) {
      noop_issued_[t.host] = t.toid;
      noops_needed->push_back("mf-ack");
      break;  // one marker acknowledges everything incorporated so far
    }
  }
}

Result<TxnOutcome> MessageFutures::Commit(Txn& txn,
                                          std::chrono::milliseconds timeout) {
  std::optional<geo::TOId> toid =
      Append(EncodeTxnRecord(txn.record_), kTxnTagValue, &txn);
  if (!toid) return TxnOutcome::kAborted;
  auto key = std::make_pair(dc_->dc_id(), *toid);

  auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    Refresh();
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = outcomes_.find(key);
      if (it != outcomes_.end()) return it->second;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::TimedOut("transaction outcome not decided in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
}

uint64_t MessageFutures::committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_;
}

uint64_t MessageFutures::aborted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aborted_;
}

}  // namespace chariots::apps
