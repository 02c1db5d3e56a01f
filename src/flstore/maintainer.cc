#include "flstore/maintainer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace chariots::flstore {

LogMaintainer::LogMaintainer(MaintainerOptions options)
    : options_(options),
      journal_(options.journal),
      store_(std::move(options.store)),
      tail_cache_(TailCacheOptions{options.tail_cache_bytes,
                                   options.tail_cache_records}) {
  size_t epochs = journal_.num_epochs();
  assign_next_.assign(epochs, 0);
  filled_contig_.assign(epochs, 0);
  filled_pending_.assign(epochs, {});
  gossip_.assign(
      std::max<size_t>(journal_.MaxMaintainers(), options.index + 1), 0);
}

Status LogMaintainer::Open() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  CHARIOTS_RETURN_IF_ERROR(store_.Open());
  RebuildStateLocked();
  return Status::OK();
}

Status LogMaintainer::Close() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  CHARIOTS_RETURN_IF_ERROR(store_.Close());
  // Crash semantics: buffered ordered appends that never landed are lost
  // (the client never got an LId for them, so it retries), and knowledge of
  // peers is stale on restart — gossip repopulates it. The tail cache dies
  // with the process image.
  deferred_.clear();
  tail_cache_.Clear();
  invalid_.clear();
  std::fill(gossip_.begin(), gossip_.end(), 0);
  RefreshHlLocked();
  return Status::OK();
}

void LogMaintainer::RebuildStateLocked() {
  std::fill(assign_next_.begin(), assign_next_.end(), 0);
  std::fill(filled_contig_.begin(), filled_contig_.end(), 0);
  for (auto& pending : filled_pending_) pending.clear();
  // Rebuild fill/assignment state from the store's own index (built by the
  // recovery scan, kept by the append path) — no second pass over the
  // segments. Ascending order keeps filled_pending_ empty.
  store_.ForEachLid([this](LId lid) {
    SlotRef ref = journal_.SlotFor(lid);
    MarkFilledLocked(ref);
    assign_next_[ref.epoch_index] =
        std::max(assign_next_[ref.epoch_index], ref.slot + 1);
  });
  gossip_[options_.index] = FirstUnfilledGlobalLocked();
  RefreshHlLocked();
}

void LogMaintainer::RefreshHlLocked() {
  hl_cache_.store(*std::min_element(gossip_.begin(), gossip_.end()),
                  std::memory_order_release);
}

Result<LId> LogMaintainer::NextAssignableGlobalLocked() const {
  // Walk epochs starting from the first with unassigned slots; skip epochs
  // where this maintainer has no (or no more) slots.
  for (size_t e = 0; e < journal_.num_epochs(); ++e) {
    uint64_t slots = journal_.SlotCount(options_.index, e);
    if (assign_next_[e] >= slots) continue;  // exhausted or not a member
    Result<LId> global =
        journal_.GlobalFor(options_.index, SlotRef{e, assign_next_[e]});
    if (global.ok()) return global;
  }
  return Status::ResourceExhausted(
      "maintainer owns no further positions in the current striping");
}

void LogMaintainer::MarkFilledLocked(SlotRef ref) {
  if (ref.epoch_index >= filled_contig_.size()) return;
  uint64_t& contig = filled_contig_[ref.epoch_index];
  std::set<uint64_t>& pending = filled_pending_[ref.epoch_index];
  if (ref.slot == contig) {
    ++contig;
    while (!pending.empty() && *pending.begin() == contig) {
      pending.erase(pending.begin());
      ++contig;
    }
  } else if (ref.slot > contig) {
    pending.insert(ref.slot);
  }
}

LId LogMaintainer::FirstUnfilledGlobalLocked() const {
  for (size_t e = 0; e < journal_.num_epochs(); ++e) {
    uint64_t slots = journal_.SlotCount(options_.index, e);
    if (slots == 0) continue;
    if (filled_contig_[e] >= slots) continue;  // epoch fully filled
    Result<LId> global = journal_.GlobalFor(
        options_.index, SlotRef{e, filled_contig_[e]});
    if (global.ok()) return *global;
  }
  return kInvalidLId;
}

Result<LogMaintainer::AssignRun> LogMaintainer::NextAssignableRunLocked(
    uint64_t max_records) const {
  for (size_t e = 0; e < journal_.num_epochs(); ++e) {
    uint64_t slots = journal_.SlotCount(options_.index, e);
    if (assign_next_[e] >= slots) continue;  // exhausted or not a member
    uint64_t slot = assign_next_[e];
    Result<LId> global = journal_.GlobalFor(options_.index, SlotRef{e, slot});
    if (!global.ok()) continue;
    // LIds are consecutive only within one stripe batch of the epoch, so
    // clip the run at the stripe-batch boundary and the epoch's slot count.
    uint64_t batch = journal_.epochs()[e].batch_size;
    uint64_t run = std::min(max_records, batch - slot % batch);
    run = std::min(run, slots - slot);
    return AssignRun{*global, run, e, slot};
  }
  return Status::ResourceExhausted(
      "maintainer owns no further positions in the current striping");
}

Status LogMaintainer::AppendBatchLocked(const LogRecord* records, size_t n,
                                        std::vector<LId>* lids) {
  lids->clear();
  lids->reserve(n);

  // Reserve runs of consecutive slots covering the whole batch, advancing
  // the assignment cursor as we go so successive runs don't overlap.
  std::vector<AssignRun> runs;
  while (lids->size() < n) {
    Result<AssignRun> run = NextAssignableRunLocked(n - lids->size());
    if (!run.ok()) {
      for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
        assign_next_[it->epoch_index] = it->first_slot;
      }
      lids->clear();
      return run.status();
    }
    assign_next_[run->epoch_index] = run->first_slot + run->count;
    for (uint64_t i = 0; i < run->count; ++i) {
      lids->push_back(run->start_lid + i);
    }
    runs.push_back(*run);
  }

  // Encode outside the store, persist with one group-commit write. The
  // reserve is load-bearing: AppendEntry views alias the encoded strings.
  std::vector<std::string> encoded;
  encoded.reserve(n);
  std::vector<storage::AppendEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    encoded.push_back(EncodeLogRecord(records[i]));
    entries.push_back(storage::AppendEntry{(*lids)[i], encoded.back()});
  }
  Status status = store_.AppendBatch(entries);
  if (!status.ok()) {
    for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
      assign_next_[it->epoch_index] = it->first_slot;
    }
    lids->clear();
    return status;
  }
  for (size_t i = 0; i < n; ++i) {
    tail_cache_.Put((*lids)[i], std::move(encoded[i]));
  }

  for (const AssignRun& run : runs) {
    for (uint64_t i = 0; i < run.count; ++i) {
      MarkFilledLocked(SlotRef{run.epoch_index, run.first_slot + i});
    }
  }
  gossip_[options_.index] = FirstUnfilledGlobalLocked();
  RefreshHlLocked();
  return Status::OK();
}

Result<LId> LogMaintainer::AppendLocked(const LogRecord& record) {
  std::vector<LId> lids;
  CHARIOTS_RETURN_IF_ERROR(AppendBatchLocked(&record, 1, &lids));
  return lids[0];
}

Result<std::vector<LId>> LogMaintainer::AppendBatch(
    std::span<const LogRecord> records) {
  if (records.empty()) return std::vector<LId>{};
  std::vector<std::pair<LogRecord, LId>> landed;
  Result<std::vector<LId>> result = [&]() -> Result<std::vector<LId>> {
    std::lock_guard<std::shared_mutex> lock(mu_);
    std::vector<LId> lids;
    CHARIOTS_RETURN_IF_ERROR(
        AppendBatchLocked(records.data(), records.size(), &lids));
    if (observer_) {
      landed.reserve(records.size());
      for (size_t i = 0; i < records.size(); ++i) {
        landed.emplace_back(records[i], lids[i]);
      }
    }
    auto drained = DrainDeferredLocked();
    landed.insert(landed.end(), std::make_move_iterator(drained.begin()),
                  std::make_move_iterator(drained.end()));
    return lids;
  }();
  if (observer_) {
    for (auto& [rec, lid] : landed) observer_(rec, lid);
  }
  return result;
}

Result<LId> LogMaintainer::Append(const LogRecord& record) {
  std::vector<std::pair<LogRecord, LId>> landed;
  Result<LId> result = [&]() -> Result<LId> {
    std::lock_guard<std::shared_mutex> lock(mu_);
    CHARIOTS_ASSIGN_OR_RETURN(LId lid, AppendLocked(record));
    landed.emplace_back(record, lid);
    auto drained = DrainDeferredLocked();
    landed.insert(landed.end(), std::make_move_iterator(drained.begin()),
                  std::make_move_iterator(drained.end()));
    return lid;
  }();
  if (observer_) {
    for (auto& [rec, lid] : landed) observer_(rec, lid);
  }
  return result;
}

Result<LId> LogMaintainer::AppendOrdered(const LogRecord& record,
                                         LId min_lid) {
  std::vector<std::pair<LogRecord, LId>> landed;
  Result<LId> result = [&]() -> Result<LId> {
    std::lock_guard<std::shared_mutex> lock(mu_);
    CHARIOTS_ASSIGN_OR_RETURN(LId next, NextAssignableGlobalLocked());
    if (next > min_lid) {
      CHARIOTS_ASSIGN_OR_RETURN(LId lid, AppendLocked(record));
      landed.emplace_back(record, lid);
      return lid;
    }
    deferred_.push_back(DeferredAppend{record, min_lid});
    return kInvalidLId;
  }();
  if (observer_) {
    for (auto& [rec, lid] : landed) observer_(rec, lid);
  }
  return result;
}

std::vector<std::pair<LogRecord, LId>> LogMaintainer::DrainDeferredLocked() {
  std::vector<std::pair<LogRecord, LId>> landed;
  bool progress = true;
  while (progress && !deferred_.empty()) {
    progress = false;
    for (auto it = deferred_.begin(); it != deferred_.end();) {
      Result<LId> next = NextAssignableGlobalLocked();
      if (!next.ok()) return landed;
      if (*next > it->min_lid) {
        Result<LId> lid = AppendLocked(it->record);
        if (lid.ok()) {
          landed.emplace_back(std::move(it->record), *lid);
          it = deferred_.erase(it);
          progress = true;
          continue;
        }
      }
      ++it;
    }
  }
  return landed;
}

Status LogMaintainer::AppendAt(LId lid, const LogRecord& record) {
  return AppendAtBatch({&lid, 1}, {&record, 1});
}

Status LogMaintainer::AppendAtBatch(std::span<const LId> lids,
                                    std::span<const LogRecord> records) {
  if (lids.size() != records.size()) {
    return Status::InvalidArgument("one lid per record");
  }
  if (lids.empty()) return Status::OK();
  const size_t n = lids.size();
  // Encode before taking the lock: readers share mu_, and a batch encoded
  // under it stalls them. The reserve is load-bearing: AppendEntry views
  // alias the encoded strings.
  std::vector<std::string> encoded;
  encoded.reserve(n);
  std::vector<storage::AppendEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    encoded.push_back(EncodeLogRecord(records[i]));
    entries.push_back(storage::AppendEntry{lids[i], encoded.back()});
  }
  {
    std::lock_guard<std::shared_mutex> lock(mu_);
    for (LId lid : lids) {
      if (journal_.MaintainerFor(lid) != options_.index) {
        return Status::OutOfRange("lid not owned by this maintainer");
      }
    }
    CHARIOTS_RETURN_IF_ERROR(store_.AppendBatch(entries));
    for (size_t i = 0; i < n; ++i) {
      tail_cache_.Put(lids[i], std::move(encoded[i]));
      SlotRef ref = journal_.SlotFor(lids[i]);
      MarkFilledLocked(ref);
      assign_next_[ref.epoch_index] =
          std::max(assign_next_[ref.epoch_index], ref.slot + 1);
    }
    gossip_[options_.index] = FirstUnfilledGlobalLocked();
    RefreshHlLocked();
  }
  if (observer_) {
    for (size_t i = 0; i < n; ++i) observer_(records[i], lids[i]);
  }
  return Status::OK();
}

Result<std::vector<LId>> LogMaintainer::FillHoles(const LogRecord& junk) {
  // Collect holes under the lock, then fill them through AppendAt so each
  // junk record goes through the normal landing path (store write, fill
  // state, gossip refresh, observer).
  std::vector<LId> holes;
  {
    std::lock_guard<std::shared_mutex> lock(mu_);
    for (size_t e = 0; e < journal_.num_epochs(); ++e) {
      const std::set<uint64_t>& pending = filled_pending_[e];
      for (uint64_t slot = filled_contig_[e]; slot < assign_next_[e];
           ++slot) {
        if (pending.count(slot) != 0) continue;
        Result<LId> global =
            journal_.GlobalFor(options_.index, SlotRef{e, slot});
        if (global.ok()) holes.push_back(*global);
      }
    }
  }
  std::vector<LId> filled;
  for (LId lid : holes) {
    LogRecord record = junk;
    record.lid = lid;
    Status status = AppendAt(lid, record);
    if (status.code() == StatusCode::kAlreadyExists) continue;  // late racer
    CHARIOTS_RETURN_IF_ERROR(status);
    filled.push_back(lid);
  }
  return filled;
}

Result<LogRecord> LogMaintainer::Read(LId lid) const {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (journal_.MaintainerFor(lid) != options_.index) {
      return Status::OutOfRange("lid not owned by this maintainer");
    }
  }
  // Lock released: the hot path below never holds mu_, so readers contend
  // with neither appends nor each other.
  if (std::optional<std::string> cached = tail_cache_.Get(lid)) {
    return DecodeLogRecord(lid, *cached);
  }
  // Cold read straight off the store (pread under its shared lock); its
  // NotFound is the answer for a gap, a GC'd or a removed record.
  CHARIOTS_ASSIGN_OR_RETURN(std::string payload, store_.Get(lid));
  return DecodeLogRecord(lid, payload);
}

Result<LogRecord> LogMaintainer::ReadCommitted(LId lid) const {
  if (lid >= hl_cache_.load(std::memory_order_acquire)) {
    return Status::Unavailable(
        "lid is at or beyond the head of the log (possible gaps)");
  }
  return Read(lid);
}

LId LogMaintainer::FirstUnfilledGlobal() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FirstUnfilledGlobalLocked();
}

void LogMaintainer::OnGossip(uint32_t peer_index, LId peer_first_unfilled) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  if (peer_index >= gossip_.size()) {
    gossip_.resize(peer_index + 1, 0);
  }
  // Monotone: gossip may arrive out of order.
  gossip_[peer_index] = std::max(gossip_[peer_index], peer_first_unfilled);
  RefreshHlLocked();
}

LId LogMaintainer::HeadOfLog() const {
  return hl_cache_.load(std::memory_order_acquire);
}

Status LogMaintainer::AddEpoch(const StripeEpoch& epoch) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  CHARIOTS_RETURN_IF_ERROR(journal_.AddEpoch(epoch));
  assign_next_.push_back(0);
  filled_contig_.push_back(0);
  filled_pending_.emplace_back();
  if (journal_.MaxMaintainers() > gossip_.size()) {
    gossip_.resize(journal_.MaxMaintainers(), 0);
  }
  gossip_[options_.index] = FirstUnfilledGlobalLocked();
  RefreshHlLocked();
  return Status::OK();
}

void LogMaintainer::SetAppendObserver(
    std::function<void(const LogRecord&, LId)> observer) {
  observer_ = std::move(observer);
}

Status LogMaintainer::Sync() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  return store_.Sync();
}

Status LogMaintainer::TruncateBelow(LId horizon,
                                    const std::string& archive_path) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  CHARIOTS_RETURN_IF_ERROR(store_.TruncateBelow(horizon, archive_path));
  // GC'd records must not be served from the cache.
  tail_cache_.InvalidateBelow(horizon);
  return Status::OK();
}

std::vector<LId> LogMaintainer::StoredLids() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return store_.ListLids();
}

Status LogMaintainer::Remove(LId lid) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  CHARIOTS_RETURN_IF_ERROR(store_.Remove(lid));
  tail_cache_.Invalidate(lid);
  invalid_.erase(lid);
  RebuildStateLocked();
  return Status::OK();
}

void LogMaintainer::InvalidateTailCache() { tail_cache_.Clear(); }

void LogMaintainer::MarkInvalid(LId lid) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  invalid_.insert(lid);
}

void LogMaintainer::MarkValid(LId lid) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  invalid_.erase(lid);
}

void LogMaintainer::MarkAllValid() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  invalid_.clear();
}

bool LogMaintainer::IsInvalid(LId lid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return invalid_.count(lid) > 0;
}

uint64_t LogMaintainer::InvalidCount() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return invalid_.size();
}

LId LogMaintainer::FirstInvalid() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return invalid_.empty() ? kInvalidLId : *invalid_.begin();
}

std::vector<std::pair<LId, std::string>> LogMaintainer::InvalidEntries()
    const {
  std::vector<LId> lids;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    lids.assign(invalid_.begin(), invalid_.end());
  }
  // Payloads are fetched outside mu_ (Read never holds it across I/O). A
  // position whose record vanished concurrently is simply not replayable.
  std::vector<std::pair<LId, std::string>> entries;
  entries.reserve(lids.size());
  for (LId lid : lids) {
    Result<LogRecord> record = Read(lid);
    if (!record.ok()) continue;
    entries.emplace_back(lid, EncodeLogRecord(*record));
  }
  return entries;
}

uint64_t LogMaintainer::count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return store_.count();
}

EpochJournal LogMaintainer::journal() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return journal_;
}

size_t LogMaintainer::deferred_ordered() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return deferred_.size();
}

}  // namespace chariots::flstore
