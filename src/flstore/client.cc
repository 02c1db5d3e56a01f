#include "flstore/client.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <tuple>

#include "common/codec.h"

namespace chariots::flstore {

namespace {

std::vector<net::NodeId> ControllerList(const net::NodeId& controller,
                                        const ClientOptions& options) {
  if (!options.controllers.empty()) return options.controllers;
  return {controller};
}

}  // namespace

FLStoreClient::FLStoreClient(net::Transport* transport, net::NodeId node,
                             net::NodeId controller, ClientOptions options)
    : endpoint_(transport, std::move(node)),
      controllers_(ControllerList(controller, options)),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Default()),
      channel_(&endpoint_, options_.retry, clock_),
      read_cache_(options_.read_cache_bytes) {}

void FLStoreClient::PutToken(BinaryWriter* w) {
  // The endpoint's fabric address is unique, so it doubles as the client id.
  w->PutBytes(endpoint_.node());
  w->PutU64(op_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
}

FLStoreClient::~FLStoreClient() { Stop(); }

Status FLStoreClient::Start() {
  CHARIOTS_RETURN_IF_ERROR(endpoint_.Start());
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  return RefreshClusterInfo();
}

void FLStoreClient::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  endpoint_.Stop();
}

Result<std::string> FLStoreClient::CallController(
    uint16_t op, const std::string& payload,
    std::chrono::milliseconds timeout) {
  Status last = Status::Unavailable("no controller replicas configured");
  const size_t n = controllers_.size();
  const uint64_t start = ctrl_rr_.load(std::memory_order_relaxed);
  // Fast cycle: one single-shot per replica. A follower's NOT_LEADER
  // answer and a dead replica both surface as retryable — rotate on.
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (start + k) % n;
    Result<std::string> result =
        endpoint_.Call(controllers_[i], op, payload, timeout);
    if (result.ok()) {
      ctrl_rr_.store(i, std::memory_order_relaxed);  // sticky on the leader
      return result;
    }
    last = result.status();
    if (!IsRetryable(last.code())) return last;
  }
  // Slow cycle: the retrying channel (with backoff) per replica, covering
  // a leader election in progress.
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (start + k) % n;
    Result<std::string> result = channel_.Call(controllers_[i], op, payload);
    if (result.ok()) {
      ctrl_rr_.store(i, std::memory_order_relaxed);
      return result;
    }
    last = result.status();
    if (!IsRetryable(last.code())) return last;
  }
  return last;
}

Status FLStoreClient::RefreshClusterInfo() {
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      CallController(kGetClusterInfo, "",
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         options_.retry.attempt_timeout)));
  CHARIOTS_ASSIGN_OR_RETURN(ClusterInfo info, DecodeClusterInfo(payload));
  std::lock_guard<std::mutex> lock(mu_);
  if (std::tie(info.ctrl_epoch, info.version) <
      std::tie(info_.ctrl_epoch, info_.version)) {
    // A deposed or lagging controller replica answered with an older
    // layout; moving backwards could resurrect a fenced coordinator. Keep
    // what we have.
    return Status::OK();
  }
  info_ = std::move(info);
  return Status::OK();
}

Result<ControlPlaneStatus> FLStoreClient::ControllerStatus() {
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      CallController(kCtrlStatus, "",
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         options_.retry.attempt_timeout)));
  BinaryReader r(payload);
  ControlPlaneStatus out;
  uint8_t is_leader = 0;
  uint64_t lease = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&out.ctrl_epoch));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&out.version));
  CHARIOTS_RETURN_IF_ERROR(r.GetU8(&is_leader));
  out.is_leader = is_leader != 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&out.leader));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lease));
  out.leader_lease_nanos = static_cast<int64_t>(lease);
  uint32_t num_stripes = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&num_stripes));
  for (uint32_t i = 0; i < num_stripes; ++i) {
    ControlPlaneStatus::Stripe stripe;
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&stripe.coordinator));
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&stripe.fence_epoch));
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lease));
    stripe.lease_nanos = static_cast<int64_t>(lease);
    uint32_t num_replicas = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&num_replicas));
    for (uint32_t j = 0; j < num_replicas; ++j) {
      std::string node;
      CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&node));
      stripe.replicas.push_back(std::move(node));
    }
    out.stripes.push_back(std::move(stripe));
  }
  return out;
}

ClusterInfo FLStoreClient::cluster_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  return info_;
}

uint32_t FLStoreClient::IndexForAppend() {
  std::lock_guard<std::mutex> lock(mu_);
  // Appends may go to any maintainer (paper §5.2: "randomly or intelligibly
  // selected"); round-robin spreads load evenly.
  uint64_t i = rr_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<uint32_t>(i % info_.maintainers.size());
}

Result<uint32_t> FLStoreClient::IndexForLId(LId lid) {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t index = info_.journal.MaintainerFor(lid);
  if (index >= info_.maintainers.size()) {
    return Status::Unavailable("stale cluster info: unknown maintainer");
  }
  return index;
}

bool FLStoreClient::ReportSuspect(uint32_t index, const net::NodeId& node) {
  BinaryWriter w;
  w.PutU32(index);
  w.PutBytes(node);
  // Generous timeout: a confirmed-dead report runs the whole failover
  // (promote + replay) inside this call.
  Result<std::string> verdict =
      CallController(kSuspect, std::move(w).data(),
                     std::chrono::milliseconds(2000));
  if (verdict.ok() && !verdict->empty() && (*verdict)[0] == '\x01') {
    (void)RefreshClusterInfo();
    return true;
  }
  return false;
}

void FLStoreClient::NoteRead(const net::NodeId& node) {
  std::lock_guard<std::mutex> lock(mu_);
  ++reads_by_node_[node];
}

std::map<net::NodeId, uint64_t> FLStoreClient::reads_by_node() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reads_by_node_;
}

Result<std::string> FLStoreClient::CallStripe(uint32_t index, uint16_t op,
                                              const std::string& payload,
                                              bool read) {
  Status last = Status::Unavailable("no failover attempts budgeted");
  bool skip_backoff = false;
  for (int attempt = 0; attempt < std::max(1, options_.failover_attempts);
       ++attempt) {
    if (attempt > 0) outer_retries_.fetch_add(1, std::memory_order_relaxed);
    if (attempt > 0 && !skip_backoff) {
      // Give an in-flight failover time to promote a replica, then learn
      // the new layout before re-resolving the stripe.
      clock_->SleepFor(options_.failover_backoff_nanos);
      Status refreshed = RefreshClusterInfo();
      if (!refreshed.ok()) {
        last = refreshed;
        continue;
      }
    }
    skip_backoff = false;
    std::vector<net::NodeId> members;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (index >= info_.maintainers.size()) {
        return Status::Unavailable("stale cluster info: unknown maintainer");
      }
      members.push_back(info_.maintainers[index]);
      if (read && index < info_.replicas.size()) {
        members.insert(members.end(), info_.replicas[index].begin(),
                       info_.replicas[index].end());
      }
    }
    const uint64_t start =
        read ? read_rr_.fetch_add(1, std::memory_order_relaxed) : 0;
    bool all_not_found = true;
    net::NodeId first_down;
    for (size_t k = 0; k < members.size(); ++k) {
      const net::NodeId& node = members[(start + k) % members.size()];
      // Reads, and a write's first attempt, are single shots (no channel
      // backoff): a dead node fails them fast, and the synchronous suspect
      // report below repairs the layout — detection + failover well under
      // one lease.
      Result<std::string> result =
          read || attempt == 0 ? endpoint_.Call(node, op, payload,
                                                options_.retry.attempt_timeout)
                               : channel_.Call(node, op, payload);
      if (result.ok()) {
        if (read) NoteRead(node);
        return result;
      }
      last = result.status();
      if (last.code() == StatusCode::kNotFound) continue;
      all_not_found = false;
      // A genuine handler error is final; kUnavailable/kTimedOut (down,
      // fenced, or INVALID_LID — not validated there yet) fails over.
      if (!IsRetryable(last.code())) return last;
      if (first_down.empty()) first_down = node;
    }
    if (all_not_found) return last;  // every member agrees: no such record
    // Let the controller probe the first dead-looking member — if it really
    // is down, the layout is repaired inside this call and the next attempt
    // goes to the survivors at once.
    if (ReportSuspect(index, first_down)) skip_backoff = true;
  }
  return last;
}

Result<LId> FLStoreClient::Append(const LogRecord& record) {
  BinaryWriter w;
  PutToken(&w);
  w.PutBytes(EncodeLogRecord(record));
  // Pick the stripe once: retries stay keyed to it, so the token reaches
  // the dedup window that executed the first attempt — on the original
  // primary, or on its promoted backup after failover (dedup state is
  // replicated with every batch).
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      CallStripe(IndexForAppend(), kAppend, std::move(w).data(),
                 /*read=*/false));
  BinaryReader r(payload);
  LId lid = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lid));
  return lid;
}

Result<std::vector<LId>> FLStoreClient::AppendBatch(
    const std::vector<LogRecord>& records) {
  BinaryWriter w;
  PutToken(&w);
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (const LogRecord& record : records) {
    w.PutBytes(EncodeLogRecord(record));
  }
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      CallStripe(IndexForAppend(), kAppendBatch, std::move(w).data(),
                 /*read=*/false));
  BinaryReader r(payload);
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  std::vector<LId> lids(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lids[i]));
  }
  return lids;
}

Result<LId> FLStoreClient::AppendOrdered(const LogRecord& record,
                                         LId min_lid) {
  BinaryWriter w;
  PutToken(&w);
  w.PutU64(min_lid);
  w.PutBytes(EncodeLogRecord(record));
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      CallStripe(IndexForAppend(), kAppendOrdered, std::move(w).data(),
                 /*read=*/false));
  BinaryReader r(payload);
  LId lid = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lid));
  return lid;
}

void FLStoreClient::CacheReadResponse(LId lid, uint32_t stripe,
                                      uint64_t epoch, uint64_t hl,
                                      const std::string& rec_bytes) {
  // Observe the epoch BEFORE inserting: if this response reveals a
  // failover, stale tail entries for the stripe are purged first and the
  // fresh record is cached under the new epoch.
  read_cache_.ObserveEpoch(stripe, epoch);
  read_cache_.Put(lid, rec_bytes, stripe, epoch, /*permanent=*/lid < hl);
}

Result<LogRecord> FLStoreClient::Read(LId lid) { return ReadOne(lid, kRead); }

Result<LogRecord> FLStoreClient::ReadCommitted(LId lid) {
  return ReadOne(lid, kReadCommitted);
}

Result<LogRecord> FLStoreClient::ReadOne(LId lid, uint16_t op) {
  if (std::optional<std::string> cached = read_cache_.Get(lid)) {
    return DecodeLogRecord(lid, *cached);
  }
  CHARIOTS_ASSIGN_OR_RETURN(uint32_t index, IndexForLId(lid));
  BinaryWriter w;
  w.PutU64(lid);
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      CallStripe(index, op, std::move(w).data(), /*read=*/true));
  BinaryReader r(payload);
  uint64_t epoch = 0, hl = 0;
  std::string rec_bytes;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&epoch));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&hl));
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&rec_bytes));
  CacheReadResponse(lid, index, epoch, hl, rec_bytes);
  return DecodeLogRecord(lid, rec_bytes);
}

Result<std::vector<LogRecord>> FLStoreClient::ReadMany(
    const std::vector<LId>& lids) {
  std::vector<LogRecord> records(lids.size());
  // Cache pass first; group the misses by stripe for coalesced fetches.
  std::map<uint32_t, std::vector<size_t>> misses_by_stripe;
  for (size_t i = 0; i < lids.size(); ++i) {
    if (std::optional<std::string> cached = read_cache_.Get(lids[i])) {
      CHARIOTS_ASSIGN_OR_RETURN(records[i],
                                DecodeLogRecord(lids[i], *cached));
      continue;
    }
    CHARIOTS_ASSIGN_OR_RETURN(uint32_t index, IndexForLId(lids[i]));
    misses_by_stripe[index].push_back(i);
  }
  // One kReadRange round trip per stripe covers every miss.
  for (const auto& [index, positions] : misses_by_stripe) {
    BinaryWriter w;
    w.PutU32(static_cast<uint32_t>(positions.size()));
    for (size_t pos : positions) w.PutU64(lids[pos]);
    CHARIOTS_ASSIGN_OR_RETURN(
        std::string payload,
        CallStripe(index, kReadRange, std::move(w).data(), /*read=*/true));
    BinaryReader r(payload);
    uint64_t epoch = 0, hl = 0;
    uint32_t n = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&epoch));
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&hl));
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
    if (n != positions.size()) {
      return Status::Internal("kReadRange response count mismatch");
    }
    for (size_t pos : positions) {
      LId lid = 0;
      uint8_t found = 0;
      CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lid));
      CHARIOTS_RETURN_IF_ERROR(r.GetU8(&found));
      if (found == 0) {
        return Status::NotFound("no record at lid");
      }
      std::string rec_bytes;
      CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&rec_bytes));
      CacheReadResponse(lid, index, epoch, hl, rec_bytes);
      CHARIOTS_ASSIGN_OR_RETURN(records[pos],
                                DecodeLogRecord(lid, rec_bytes));
    }
  }
  return records;
}

Result<LId> FLStoreClient::HeadOfLog() {
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      CallStripe(IndexForAppend(), kHeadOfLog, "", /*read=*/true));
  BinaryReader r(payload);
  LId hl = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&hl));
  return hl;
}

Result<std::vector<Posting>> FLStoreClient::Lookup(const IndexQuery& query) {
  net::NodeId indexer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (info_.indexers.empty()) {
      return Status::FailedPrecondition("cluster has no indexers");
    }
    indexer = info_.indexers[IndexerForKey(
        query.key, static_cast<uint32_t>(info_.indexers.size()))];
  }
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      channel_.Call(indexer, kIndexLookup, EncodeIndexQuery(query)));
  return DecodePostings(payload);
}

Result<std::vector<LogRecord>> FLStoreClient::ReadByTag(
    const IndexQuery& query) {
  CHARIOTS_ASSIGN_OR_RETURN(std::vector<Posting> postings, Lookup(query));
  std::vector<LId> lids;
  lids.reserve(postings.size());
  for (const Posting& p : postings) lids.push_back(p.lid);
  return ReadMany(lids);
}

}  // namespace chariots::flstore
