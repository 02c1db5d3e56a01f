#include "flstore/maintainer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace chariots::flstore {

namespace {

std::vector<std::string> EncodeAll(std::span<const LogRecord> records) {
  std::vector<std::string> encoded;
  encoded.reserve(records.size());
  for (const LogRecord& record : records) {
    encoded.push_back(EncodeLogRecord(record));
  }
  return encoded;
}

}  // namespace

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
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::lock_guard<std::shared_mutex> lock(mu_);
  CHARIOTS_RETURN_IF_ERROR(store_.Open());
  RebuildStateLocked();
  return Status::OK();
}

Status LogMaintainer::Close() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
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

Result<LId> LogMaintainer::NextFreeLocked(
    const std::vector<uint64_t>& cursor) const {
  // Walk epochs starting from the first with unassigned slots; skip epochs
  // where this maintainer has no (or no more) slots.
  for (size_t e = 0; e < journal_.num_epochs(); ++e) {
    if (cursor[e] >= journal_.SlotCount(options_.index, e)) continue;
    Result<LId> global =
        journal_.GlobalFor(options_.index, SlotRef{e, cursor[e]});
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

Status LogMaintainer::PlanLocked(size_t n, std::vector<LId>* lids,
                                 std::vector<size_t>* released) const {
  // Plans on a copy of the cursor: the cursor itself moves only when the
  // landing publishes, so a failed write has nothing to roll back.
  std::vector<uint64_t> cursor = assign_next_;
  auto take = [&](LId lid) {
    lids->push_back(lid);
    SlotRef ref = journal_.SlotFor(lid);
    cursor[ref.epoch_index] = ref.slot + 1;
  };
  for (size_t i = 0; i < n; ++i) {
    CHARIOTS_ASSIGN_OR_RETURN(LId lid, NextFreeLocked(cursor));
    take(lid);
  }
  std::vector<bool> taken(deferred_.size(), false);
  for (bool progress = true; progress;) {
    progress = false;
    for (size_t i = 0; i < deferred_.size(); ++i) {
      if (taken[i]) continue;
      Result<LId> next = NextFreeLocked(cursor);
      if (!next.ok()) return Status::OK();
      if (*next <= deferred_[i].min_lid) continue;
      take(*next);
      taken[i] = true;
      released->push_back(i);
      progress = true;
    }
  }
  return Status::OK();
}

Status LogMaintainer::LandLocked(std::vector<LId>* lids,
                                 std::vector<std::string> encoded,
                                 const Landing& landing,
                                 std::vector<LogRecord>* released) {
  std::vector<size_t> drained;  // deferred_ indices, in landing order
  std::vector<LId> marked;  // made invalid here, unmarked if the write fails
  {
    std::lock_guard<std::shared_mutex> lock(mu_);
    if (lids->empty()) {
      CHARIOTS_RETURN_IF_ERROR(PlanLocked(encoded.size(), lids, &drained));
      for (size_t i : drained) encoded.push_back(deferred_[i].encoded);
    } else {
      for (LId lid : *lids) {
        if (journal_.MaintainerFor(lid) != options_.index) {
          return Status::OutOfRange("lid not owned by this maintainer");
        }
      }
    }
    if (landing.invalid) {
      for (LId lid : *lids) {
        if (invalid_.insert(lid).second) marked.push_back(lid);
      }
    }
  }
  // The store write and its fdatasync run without mu_: readers of other
  // positions proceed, and write_mu_ keeps every other landing out.
  std::vector<storage::AppendEntry> entries;
  entries.reserve(lids->size());
  for (size_t i = 0; i < lids->size(); ++i) {
    entries.push_back(storage::AppendEntry{(*lids)[i], encoded[i]});
  }
  Status written = store_.AppendBatch(entries);
  if (written.ok() && landing.collect != nullptr) {
    for (size_t i = 0; i < lids->size(); ++i) {
      landing.collect->push_back(ReplicatedEntry{(*lids)[i], encoded[i]});
    }
  }
  std::lock_guard<std::shared_mutex> lock(mu_);
  if (!written.ok()) {
    for (LId lid : marked) invalid_.erase(lid);
    return written;
  }
  for (size_t i = 0; i < lids->size(); ++i) {
    tail_cache_.Put((*lids)[i], std::move(encoded[i]));
    SlotRef ref = journal_.SlotFor((*lids)[i]);
    MarkFilledLocked(ref);
    assign_next_[ref.epoch_index] =
        std::max(assign_next_[ref.epoch_index], ref.slot + 1);
  }
  for (size_t i : drained) released->push_back(std::move(deferred_[i].record));
  std::sort(drained.begin(), drained.end(), std::greater<>());
  for (size_t i : drained) deferred_.erase(deferred_.begin() + i);
  gossip_[options_.index] = FirstUnfilledGlobalLocked();
  RefreshHlLocked();
  return Status::OK();
}

void LogMaintainer::Notify(std::span<const LogRecord> records,
                           std::span<const LId> lids,
                           const std::vector<LogRecord>& released) const {
  if (!observer_) return;
  for (size_t i = 0; i < records.size(); ++i) observer_(records[i], lids[i]);
  for (size_t i = 0; i < released.size(); ++i) {
    observer_(released[i], lids[records.size() + i]);
  }
}

Result<LId> LogMaintainer::Append(const LogRecord& record,
                                  const Landing& landing) {
  CHARIOTS_ASSIGN_OR_RETURN(std::vector<LId> lids,
                            AppendBatch({&record, 1}, landing));
  return lids[0];
}

Result<std::vector<LId>> LogMaintainer::AppendBatch(
    std::span<const LogRecord> records, const Landing& landing) {
  if (records.empty()) return std::vector<LId>{};
  std::vector<std::string> encoded = EncodeAll(records);
  std::vector<LId> lids;
  std::vector<LogRecord> released;
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    CHARIOTS_RETURN_IF_ERROR(
        LandLocked(&lids, std::move(encoded), landing, &released));
  }
  Notify(records, lids, released);
  lids.resize(records.size());
  return lids;
}

Result<LId> LogMaintainer::AppendOrdered(const LogRecord& record,
                                         LId min_lid,
                                         const Landing& landing) {
  std::vector<std::string> encoded = EncodeAll({&record, 1});
  std::vector<LId> lids;
  std::vector<LogRecord> released;
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    CHARIOTS_ASSIGN_OR_RETURN(LId next, NextFreeLocked(assign_next_));
    if (next <= min_lid) {
      std::lock_guard<std::shared_mutex> lock(mu_);
      deferred_.push_back(
          DeferredAppend{record, std::move(encoded[0]), min_lid});
      return kInvalidLId;
    }
    CHARIOTS_RETURN_IF_ERROR(
        LandLocked(&lids, std::move(encoded), landing, &released));
  }
  Notify({&record, 1}, lids, released);
  return lids[0];
}

Status LogMaintainer::AppendAt(LId lid, const LogRecord& record,
                               const Landing& landing) {
  return AppendAtBatch({&lid, 1}, {&record, 1}, landing);
}

Status LogMaintainer::AppendAtBatch(std::span<const LId> lids,
                                    std::span<const LogRecord> records,
                                    const Landing& landing) {
  if (lids.size() != records.size()) {
    return Status::InvalidArgument("one lid per record");
  }
  if (lids.empty()) return Status::OK();
  // Encode before taking any lock: a batch encoded under write_mu_ would
  // delay the next landing.
  std::vector<std::string> encoded = EncodeAll(records);
  std::vector<LId> landed(lids.begin(), lids.end());
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    CHARIOTS_RETURN_IF_ERROR(
        LandLocked(&landed, std::move(encoded), landing, nullptr));
  }
  Notify(records, lids, {});
  return Status::OK();
}

Result<std::vector<LId>> LogMaintainer::FillHoles(const LogRecord& junk,
                                                  const Landing& landing) {
  // write_mu_ is held from the hole scan through the fill, so a landing
  // still in flight finishes first and its position is no hole; the junk
  // lands as one batch through the normal landing path (store write, fill
  // state, gossip refresh), and the observer sees each fill.
  std::vector<LId> holes;
  std::vector<LogRecord> fills;
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
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
    if (holes.empty()) return holes;
    fills.reserve(holes.size());
    for (LId lid : holes) {
      fills.push_back(junk);
      fills.back().lid = lid;
    }
    CHARIOTS_RETURN_IF_ERROR(
        LandLocked(&holes, EncodeAll(fills), landing, nullptr));
  }
  Notify(fills, holes, {});
  return holes;
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
  std::lock_guard<std::mutex> write_lock(write_mu_);
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
  std::lock_guard<std::mutex> write_lock(write_mu_);
  return store_.Sync();
}

Status LogMaintainer::TruncateBelow(LId horizon,
                                    const std::string& archive_path) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
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
  std::lock_guard<std::mutex> write_lock(write_mu_);
  CHARIOTS_RETURN_IF_ERROR(store_.Remove(lid));
  std::lock_guard<std::shared_mutex> lock(mu_);
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

std::vector<ReplicatedEntry> LogMaintainer::InvalidEntries() const {
  std::vector<LId> lids;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    lids.assign(invalid_.begin(), invalid_.end());
  }
  // Payloads are fetched outside mu_ (Read never holds it across I/O). A
  // position whose record vanished concurrently is simply not replayable.
  std::vector<ReplicatedEntry> entries;
  entries.reserve(lids.size());
  for (LId lid : lids) {
    Result<LogRecord> record = Read(lid);
    if (!record.ok()) continue;
    entries.push_back(ReplicatedEntry{lid, EncodeLogRecord(*record)});
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
