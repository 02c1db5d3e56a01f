#include "storage/log_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_set>

#include "common/clock.h"
#include "common/codec.h"
#include "common/crc32c.h"
#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "storage/format.h"

namespace chariots::storage {

namespace {
using format::EncodeFrame;
using format::kFrameData;
using format::kFrameHeaderBytes;
using format::kFrameTombstone;

metrics::Counter* BytesWrittenCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "storage.log_store.bytes_written");
  return c;
}

metrics::Counter* RotationsCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "storage.log_store.segment_rotations");
  return c;
}

metrics::Histogram* FsyncHist() {
  static metrics::Histogram* h =
      metrics::Registry::Default().GetHistogram("storage.log_store.fsync_ns");
  return h;
}

metrics::Histogram* RecoveryScanHist() {
  static metrics::Histogram* h = metrics::Registry::Default().GetHistogram(
      "storage.log_store.recovery_scan_ns");
  return h;
}

metrics::Counter* TornTailsCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "storage.log_store.torn_tails_truncated");
  return c;
}

metrics::Gauge* IndexBytesGauge() {
  static metrics::Gauge* g = metrics::Registry::Default().GetGauge(
      "chariots.storage.log_store.index_bytes");
  return g;
}

/// Heap bytes of one std::map node: the red-black tree header (colour and
/// three links) plus the value.
template <typename Map>
constexpr int64_t kMapNodeBytes =
    32 + static_cast<int64_t>(sizeof(typename Map::value_type));

/// Reserves room for one more element, growing by a quarter instead of the
/// library's doubling so a vector's slack stays under 25% of its size (plus
/// the first step). Returns the capacity added, in elements.
template <typename T>
int64_t GrowForOne(std::vector<T>* v) {
  const size_t before = v->capacity();
  if (v->size() < before) return 0;
  v->reserve(before + before / 4 + 64);
  return static_cast<int64_t>(v->capacity() - before);
}
}  // namespace

LogStore::LogStore(LogStoreOptions options)
    : options_(std::move(options)),
      engine_(options_.io_engine != nullptr ? options_.io_engine
                                            : SyncIoEngine()) {}

LogStore::~LogStore() {
  IndexBytesGauge()->Add(-static_cast<int64_t>(index_bytes_));
}

std::string LogStore::SegmentPath(uint64_t segment_id) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/seg-%08" PRIu64 ".log", segment_id);
  return options_.dir + buf;
}

Status LogStore::Open() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::lock_guard<std::shared_mutex> lock(mu_);
  if (open_) return Status::FailedPrecondition("LogStore already open");
  if (options_.mode == SyncMode::kMemoryOnly) {
    open_ = true;
    return Status::OK();
  }
  if (options_.dir.empty()) {
    return Status::InvalidArgument("LogStoreOptions.dir required");
  }
  CHARIOTS_RETURN_IF_ERROR(CreateDirIfMissing(options_.dir));

  CHARIOTS_ASSIGN_OR_RETURN(std::vector<std::string> names,
                            ListDir(options_.dir));
  std::vector<uint64_t> ids;
  for (const auto& name : names) {
    uint64_t id = 0;
    if (std::sscanf(name.c_str(), "seg-%08" PRIu64 ".log", &id) == 1) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    Status status = RecoverSegment(ids[i], i + 1 == ids.size());
    if (!status.ok()) {
      ResetLocked();
      return status;
    }
  }
  next_segment_id_ = ids.empty() ? 0 : ids.back() + 1;

  // Open a fresh active segment if there is none or the last is full.
  if (segments_.empty() ||
      segments_.rbegin()->second.file.size() >= options_.segment_bytes) {
    Segment seg;
    seg.id = next_segment_id_;
    seg.path = SegmentPath(seg.id);
    Result<FaultInjectingFile> file =
        FaultInjectingFile::OpenAppendable(seg.path, options_.disk_faults);
    Status synced = file.ok() ? SyncDir(options_.dir) : file.status();
    if (!synced.ok()) {
      ResetLocked();
      return synced;
    }
    seg.file = std::move(*file);
    segments_.emplace(seg.id, std::move(seg));
    ++next_segment_id_;
  }
  open_ = true;
  return Status::OK();
}

Status LogStore::Close() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::lock_guard<std::shared_mutex> lock(mu_);
  if (!open_) return Status::OK();
  ResetLocked();
  return Status::OK();
}

void LogStore::ResetLocked() {
  dense_starts_.clear();
  segments_.clear();  // File destructors release the fds
  overflow_.clear();
  dense_next_ = 0;
  AddIndexBytesLocked(-static_cast<int64_t>(index_bytes_));
  mem_.clear();
  next_segment_id_ = 0;
  max_lid_ = 0;
  count_ = 0;
  mem_bytes_ = 0;
  arena_.clear();
  tail_dirty_ = false;
  open_ = false;
}

void LogStore::AddIndexBytesLocked(int64_t delta) {
  if (delta == 0) return;
  index_bytes_ += delta;
  IndexBytesGauge()->Add(delta);
}

LogStore::IndexEntry* LogStore::FindDenseLocked(uint64_t lid,
                                                const Segment** owner) const {
  if (lid >= dense_next_) return nullptr;
  auto it = dense_starts_.upper_bound(lid);
  if (it == dense_starts_.begin()) return nullptr;
  Segment* seg = std::prev(it)->second;
  std::vector<IndexEntry>& v = seg->entries;
  const uint64_t first = v.front().lid;
  const uint64_t last = v.back().lid;
  if (lid > last) return nullptr;
  // A segment's lids are mostly consecutive (or evenly striped), so
  // interpolating usually lands on the entry: one cache miss where a
  // binary search over a large segment takes a dozen. Otherwise search the
  // side of the guess the lid is on.
  auto guess = v.begin();
  if (last != first) {
    guess += static_cast<std::ptrdiff_t>(static_cast<double>(lid - first) /
                                         static_cast<double>(last - first) *
                                         static_cast<double>(v.size() - 1));
  }
  auto e = guess;
  if (guess->lid != lid) {
    auto lo = guess->lid < lid ? guess + 1 : v.begin();
    auto hi = guess->lid < lid ? v.end() : guess;
    e = std::lower_bound(
        lo, hi, lid,
        [](const IndexEntry& entry, uint64_t l) { return entry.lid < l; });
    if (e == v.end() || e->lid != lid) return nullptr;
  }
  *owner = seg;
  return &*e;
}

std::optional<RecordLocation> LogStore::LookupLocked(uint64_t lid) const {
  if (auto it = overflow_.find(lid); it != overflow_.end()) return it->second;
  const Segment* seg = nullptr;
  const IndexEntry* e = FindDenseLocked(lid, &seg);
  if (e == nullptr || e->offset == 0) return std::nullopt;
  return RecordLocation{seg->id, e->offset, e->length};
}

void LogStore::IndexInsertLocked(Segment& seg, uint64_t lid, uint64_t offset,
                                 uint32_t length) {
  if (lid >= dense_next_ && offset <= UINT32_MAX) {
    if (seg.entries.empty()) {
      dense_starts_.emplace(lid, &seg);
      AddIndexBytesLocked(kMapNodeBytes<decltype(dense_starts_)>);
    }
    AddIndexBytesLocked(GrowForOne(&seg.entries) *
                        static_cast<int64_t>(sizeof(IndexEntry)));
    seg.entries.push_back(
        IndexEntry{lid, static_cast<uint32_t>(offset), length});
    dense_next_ = lid + 1;
    return;
  }
  overflow_.emplace(lid, RecordLocation{seg.id, offset, length});
  AddIndexBytesLocked(kMapNodeBytes<decltype(overflow_)>);
  AddIndexBytesLocked(GrowForOne(&seg.overflow_lids) *
                      static_cast<int64_t>(sizeof(uint64_t)));
  seg.overflow_lids.push_back(lid);
}

bool LogStore::IndexEraseLocked(uint64_t lid) {
  if (auto it = overflow_.find(lid); it != overflow_.end()) {
    overflow_.erase(it);
    AddIndexBytesLocked(-kMapNodeBytes<decltype(overflow_)>);
    return true;
  }
  const Segment* seg = nullptr;
  IndexEntry* e = FindDenseLocked(lid, &seg);
  if (e == nullptr || e->offset == 0) return false;
  e->offset = 0;
  return true;
}

void LogStore::CollectLiveLidsLocked(const Segment& seg,
                                     std::vector<uint64_t>* out) const {
  for (const IndexEntry& e : seg.entries) {
    if (e.offset != 0) out->push_back(e.lid);
  }
  for (uint64_t lid : seg.overflow_lids) {
    auto it = overflow_.find(lid);
    if (it != overflow_.end() && it->second.segment_id == seg.id) {
      out->push_back(lid);
    }
  }
}

void LogStore::DropSegmentIndexLocked(Segment& seg) {
  for (const IndexEntry& e : seg.entries) {
    if (e.offset != 0) --count_;
  }
  for (uint64_t lid : seg.overflow_lids) {
    auto it = overflow_.find(lid);
    if (it == overflow_.end() || it->second.segment_id != seg.id) continue;
    --count_;
    overflow_.erase(it);
    AddIndexBytesLocked(-kMapNodeBytes<decltype(overflow_)>);
  }
  if (!seg.entries.empty()) {
    dense_starts_.erase(seg.entries.front().lid);
    AddIndexBytesLocked(-kMapNodeBytes<decltype(dense_starts_)>);
  }
  AddIndexBytesLocked(
      -static_cast<int64_t>(seg.entries.capacity() * sizeof(IndexEntry) +
                            seg.overflow_lids.capacity() * sizeof(uint64_t)));
  seg.entries = {};
  seg.overflow_lids = {};
}

Status LogStore::RecoverSegment(uint64_t segment_id, bool is_last) {
  metrics::ScopedLatencyTimer scan_timer(RecoveryScanHist());
  std::string path = SegmentPath(segment_id);
  CHARIOTS_ASSIGN_OR_RETURN(
      FaultInjectingFile file,
      FaultInjectingFile::OpenAppendable(path, options_.disk_faults));

  Segment& seg = segments_[segment_id];
  seg.id = segment_id;
  seg.path = path;
  seg.file = std::move(file);
  uint64_t offset = 0;
  const uint64_t file_size = seg.file.size();
  std::string header;
  std::string body;
  while (offset + kFrameHeaderBytes <= file_size) {
    CHARIOTS_RETURN_IF_ERROR(
        seg.file.ReadAt(offset, kFrameHeaderBytes, &header));
    BinaryReader hr(header);
    uint32_t stored_crc = 0, len = 0;
    uint64_t lid = 0;
    uint8_t type = 0;
    (void)hr.GetU32(&stored_crc);
    (void)hr.GetU8(&type);
    (void)hr.GetU32(&len);
    (void)hr.GetU64(&lid);

    uint64_t frame_end = offset + kFrameHeaderBytes + len;
    bool bad = frame_end > file_size || type > kFrameTombstone;
    if (!bad) {
      CHARIOTS_RETURN_IF_ERROR(
          seg.file.ReadAt(offset + kFrameHeaderBytes, len, &body));
      BinaryWriter check;
      check.PutU8(type);
      check.PutU32(len);
      check.PutU64(lid);
      check.PutRaw(body);
      bad = crc32c::Unmask(stored_crc) != crc32c::Value(check.data());
    }
    if (bad) {
      if (is_last) {
        LOG_WARN << "truncating torn tail of " << path << " at offset "
                 << offset;
        TornTailsCounter()->Add();
        CHARIOTS_RETURN_IF_ERROR(seg.file.Truncate(offset));
        break;
      }
      return Status::Corruption("bad frame in non-final segment " + path);
    }

    // A later frame for a lid supersedes an earlier one: a tombstone kills
    // the data before it, and a lid may be rewritten after a tombstone whose
    // segment was garbage collected.
    if (IndexEraseLocked(lid)) --count_;
    if (type == kFrameTombstone) {
      seg.tombstones.push_back(lid);
    } else {
      IndexInsertLocked(seg, lid, offset + kFrameHeaderBytes, len);
      ++count_;
      seg.min_lid = std::min(seg.min_lid, lid);
      seg.max_lid = std::max(seg.max_lid, lid);
      ++seg.records;
      max_lid_ = std::max(max_lid_, lid);
    }
    offset = frame_end;
  }
  if (offset < seg.file.size() && is_last) {
    // Trailing partial header.
    LOG_WARN << "truncating partial frame header of " << path;
    CHARIOTS_RETURN_IF_ERROR(seg.file.Truncate(offset));
  } else if (offset < seg.file.size()) {
    return Status::Corruption("trailing garbage in non-final segment " + path);
  }
  return Status::OK();
}

Status LogStore::RotateIfNeededLocked() {
  Segment& active = segments_.rbegin()->second;
  if (active.file.size() < options_.segment_bytes) return Status::OK();
  RotationsCounter()->Add();
  Segment seg;
  seg.id = next_segment_id_;
  seg.path = SegmentPath(seg.id);
  CHARIOTS_ASSIGN_OR_RETURN(
      seg.file,
      FaultInjectingFile::OpenAppendable(seg.path, options_.disk_faults));
  // A segment whose records are synced is still lost with its directory
  // entry: make the entry durable before the first append lands in it.
  CHARIOTS_RETURN_IF_ERROR(SyncDir(options_.dir));
  {
    std::lock_guard<std::shared_mutex> lock(mu_);
    segments_.emplace(seg.id, std::move(seg));
  }
  ++next_segment_id_;
  return Status::OK();
}

Status LogStore::CheckTailLocked() const {
  if (!tail_dirty_) return Status::OK();
  return Status::IOError(
      "log store tail holds a failed append that could not be truncated; "
      "reopen to recover");
}

Status LogStore::RollBackLocked(Segment& seg, uint64_t base, Status failure) {
  // Left in place, the bytes would shift every later record's offset in the
  // O_APPEND segment away from the one the index records.
  if (Status undo = seg.file.Truncate(base); !undo.ok()) {
    LOG_ERROR << "cannot truncate failed append off " << seg.path
              << "; refusing further appends: " << undo.ToString();
    tail_dirty_ = true;
  }
  return failure;
}

Status LogStore::Append(uint64_t lid, std::string_view payload) {
  AppendEntry entry{lid, payload};
  return AppendBatch({&entry, 1});
}

Status LogStore::ValidateBatchLocked(
    std::span<const AppendEntry> entries) const {
  for (const AppendEntry& e : entries) {
    bool live = options_.mode == SyncMode::kMemoryOnly
                    ? mem_.count(e.lid) != 0
                    : LookupLocked(e.lid).has_value();
    if (live) return Status::AlreadyExists("lid already present");
  }
  // A strictly increasing batch (every group commit, every in-order run)
  // cannot repeat a lid; only other orders pay for a set.
  bool increasing =
      std::adjacent_find(entries.begin(), entries.end(),
                         [](const AppendEntry& a, const AppendEntry& b) {
                           return a.lid >= b.lid;
                         }) == entries.end();
  if (!increasing) {
    std::unordered_set<uint64_t> seen;
    seen.reserve(entries.size());
    for (const AppendEntry& e : entries) {
      if (!seen.insert(e.lid).second) {
        return Status::AlreadyExists("duplicate lid within batch");
      }
    }
  }
  return Status::OK();
}

Status LogStore::AppendBatch(std::span<const AppendEntry> entries) {
  if (entries.empty()) return Status::OK();
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (!open_) return Status::FailedPrecondition("LogStore not open");
  // Validate the whole batch before writing a single byte, so a rejected
  // batch leaves the store untouched.
  CHARIOTS_RETURN_IF_ERROR(ValidateBatchLocked(entries));

  if (options_.mode == SyncMode::kMemoryOnly) {
    std::lock_guard<std::shared_mutex> lock(mu_);
    for (const AppendEntry& e : entries) {
      mem_.emplace(e.lid, std::string(e.payload));
      mem_bytes_ += e.payload.size();
      ++count_;
      max_lid_ = std::max(max_lid_, e.lid);
    }
    return Status::OK();
  }

  CHARIOTS_RETURN_IF_ERROR(CheckTailLocked());
  CHARIOTS_RETURN_IF_ERROR(RotateIfNeededLocked());
  Segment& seg = segments_.rbegin()->second;

  // Group commit (DESIGN.md §15): only the fixed-size frame headers are
  // encoded (into the reusable arena, one kFrameHeaderBytes stride per
  // record, CRC extended over the borrowed payload in place); the payloads
  // ride as views of the caller's buffers into one Appendv — one write(2)
  // and, under kFsyncEach, one fdatasync for the whole batch.
  arena_.clear();
  arena_.reserve(entries.size() * kFrameHeaderBytes);
  uint64_t payload_bytes = 0;
  for (const AppendEntry& e : entries) {
    format::AppendFrameHeaderTo(&arena_, kFrameData, e.lid, e.payload);
    payload_bytes += e.payload.size();
  }
  parts_.clear();
  parts_.reserve(entries.size() * 2);
  for (size_t i = 0; i < entries.size(); ++i) {
    parts_.push_back(
        std::string_view(arena_).substr(i * kFrameHeaderBytes,
                                        kFrameHeaderBytes));
    if (!entries[i].payload.empty()) parts_.push_back(entries[i].payload);
  }
  const bool sync = SyncsEachWrite();
  const uint64_t base = seg.file.size();
  const int64_t start = SystemClock::Default()->NowNanos();
  if (Status s = seg.file.AppendvAndSync(parts_, sync, engine_); !s.ok()) {
    return RollBackLocked(seg, base, std::move(s));
  }
  BytesWrittenCounter()->Add(arena_.size() + payload_bytes);
  if (sync) {
    const auto nanos =
        static_cast<uint64_t>(SystemClock::Default()->NowNanos() - start);
    FsyncHist()->Record(nanos);
    flightrec::Record(flightrec::EventType::kFsync, 0, 0, nanos, seg.records);
  }

  // Publish: the batch is written (and synced under kFsyncEach), so a
  // reader that finds a record finds it as durable as the mode promises.
  std::lock_guard<std::shared_mutex> lock(mu_);
  uint64_t offset = base;
  for (const AppendEntry& e : entries) {
    IndexInsertLocked(seg, e.lid, offset + kFrameHeaderBytes,
                      static_cast<uint32_t>(e.payload.size()));
    offset += kFrameHeaderBytes + e.payload.size();
    seg.min_lid = std::min(seg.min_lid, e.lid);
    seg.max_lid = std::max(seg.max_lid, e.lid);
    ++seg.records;
    ++count_;
    max_lid_ = std::max(max_lid_, e.lid);
  }
  return Status::OK();
}

Status LogStore::Remove(uint64_t lid) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (!open_) return Status::FailedPrecondition("LogStore not open");
  if (options_.mode == SyncMode::kMemoryOnly) {
    std::lock_guard<std::shared_mutex> lock(mu_);
    auto it = mem_.find(lid);
    if (it == mem_.end()) return Status::NotFound("no record at lid");
    mem_bytes_ -= it->second.size();
    mem_.erase(it);
    --count_;
    return Status::OK();
  }
  if (!LookupLocked(lid)) return Status::NotFound("no record at lid");
  CHARIOTS_RETURN_IF_ERROR(CheckTailLocked());
  CHARIOTS_RETURN_IF_ERROR(RotateIfNeededLocked());
  Segment& seg = segments_.rbegin()->second;
  const uint64_t base = seg.file.size();
  Status s = seg.file.Append(EncodeFrame(kFrameTombstone, lid, ""));
  if (s.ok() && SyncsEachWrite()) s = seg.file.Sync();
  if (!s.ok()) return RollBackLocked(seg, base, std::move(s));
  seg.tombstones.push_back(lid);
  std::lock_guard<std::shared_mutex> lock(mu_);
  IndexEraseLocked(lid);
  --count_;
  return Status::OK();
}

Result<std::string> LogStore::Get(uint64_t lid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!open_) return Status::FailedPrecondition("LogStore not open");
  if (options_.mode == SyncMode::kMemoryOnly) {
    auto it = mem_.find(lid);
    if (it == mem_.end()) return Status::NotFound("no record at lid");
    return it->second;
  }
  std::optional<RecordLocation> loc = LookupLocked(lid);
  if (!loc) return Status::NotFound("no record at lid");
  auto seg_it = segments_.find(loc->segment_id);
  if (seg_it == segments_.end()) {
    return Status::Internal("index points at missing segment");
  }
  std::string payload;
  CHARIOTS_RETURN_IF_ERROR(
      seg_it->second.file.ReadAt(loc->offset, loc->length, &payload));
  return payload;
}

Result<RecordLocation> LogStore::Locate(uint64_t lid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!open_) return Status::FailedPrecondition("LogStore not open");
  if (options_.mode == SyncMode::kMemoryOnly) {
    auto it = mem_.find(lid);
    if (it == mem_.end()) return Status::NotFound("no record at lid");
    return RecordLocation{0, 0, static_cast<uint32_t>(it->second.size())};
  }
  std::optional<RecordLocation> loc = LookupLocked(lid);
  if (!loc) return Status::NotFound("no record at lid");
  return *loc;
}

bool LogStore::Contains(uint64_t lid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (options_.mode == SyncMode::kMemoryOnly) return mem_.count(lid) != 0;
  return LookupLocked(lid).has_value();
}

Status LogStore::Sync() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (!open_) return Status::FailedPrecondition("LogStore not open");
  if (options_.mode == SyncMode::kMemoryOnly) return Status::OK();
  metrics::ScopedLatencyTimer timer(FsyncHist());
  return segments_.rbegin()->second.file.Sync();
}

Status LogStore::TruncateBelow(uint64_t horizon,
                               const std::string& archive_path) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (!open_) return Status::FailedPrecondition("LogStore not open");
  if (options_.mode == SyncMode::kMemoryOnly) {
    std::lock_guard<std::shared_mutex> lock(mu_);
    for (auto it = mem_.begin(); it != mem_.end();) {
      if (it->first < horizon) {
        mem_bytes_ -= it->second.size();
        it = mem_.erase(it);
        --count_;
      } else {
        ++it;
      }
    }
    return Status::OK();
  }

  std::unique_ptr<File> archive;
  if (!archive_path.empty()) {
    CHARIOTS_ASSIGN_OR_RETURN(File f, File::OpenAppendable(archive_path));
    archive = std::make_unique<File>(std::move(f));
  }

  for (auto it = segments_.begin(); it != segments_.end();) {
    Segment& seg = it->second;
    // Never drop the active (last) segment, and only whole segments whose
    // every record is below the horizon.
    bool is_active = std::next(it) == segments_.end();
    if (is_active || seg.records == 0 || seg.max_lid >= horizon) {
      ++it;
      continue;
    }
    if (archive != nullptr) {
      std::string contents;
      CHARIOTS_RETURN_IF_ERROR(
          seg.file.ReadAt(0, seg.file.size(), &contents));
      CHARIOTS_RETURN_IF_ERROR(archive->Append(contents));
    }
    // Lids that must stay dead once the segment is gone: its tombstones
    // whose lids were not rewritten since, and its live records (the lids
    // become dead). A dead or superseded data frame for any of them may
    // survive in another segment, so each gets a tombstone in the active
    // segment. That write, synced under kFsyncEach, lands before the unlink:
    // until then this segment holds the only durable copy of its markers.
    std::vector<uint64_t> keep_tombstones;
    for (uint64_t t : seg.tombstones) {
      if (!LookupLocked(t)) keep_tombstones.push_back(t);
    }
    CollectLiveLidsLocked(seg, &keep_tombstones);
    if (!keep_tombstones.empty()) {
      CHARIOTS_RETURN_IF_ERROR(CheckTailLocked());
      Segment& active = segments_.rbegin()->second;
      std::string frames;
      for (uint64_t t : keep_tombstones) {
        frames += EncodeFrame(kFrameTombstone, t, "");
      }
      const uint64_t base = active.file.size();
      Status s = active.file.Append(frames);
      if (s.ok() && SyncsEachWrite()) s = active.file.Sync();
      if (!s.ok()) return RollBackLocked(active, base, std::move(s));
      active.tombstones.insert(active.tombstones.end(),
                               keep_tombstones.begin(), keep_tombstones.end());
    }
    // Once it leaves segments_ no reader can reach the segment, so its file
    // is closed and removed outside mu_.
    decltype(segments_)::node_type dropped;
    {
      std::lock_guard<std::shared_mutex> lock(mu_);
      DropSegmentIndexLocked(seg);
      dropped = segments_.extract(it++);
    }
    dropped.mapped().file.Close();
    CHARIOTS_RETURN_IF_ERROR(RemoveFile(dropped.mapped().path));
  }
  if (archive != nullptr) {
    CHARIOTS_RETURN_IF_ERROR(archive->Sync());
  }
  return Status::OK();
}

uint64_t LogStore::count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return count_;
}

uint64_t LogStore::max_lid() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return max_lid_;
}

void LogStore::ForEachLid(const std::function<void(uint64_t)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (options_.mode == SyncMode::kMemoryOnly) {
    std::vector<uint64_t> lids;
    lids.reserve(mem_.size());
    for (const auto& [lid, _] : mem_) lids.push_back(lid);
    std::sort(lids.begin(), lids.end());
    for (uint64_t lid : lids) fn(lid);
    return;
  }
  // Dense entries ascend across segments; merge the overflow map in.
  auto over = overflow_.begin();
  for (const auto& [_, seg] : dense_starts_) {
    for (const IndexEntry& e : seg->entries) {
      if (e.offset == 0) continue;
      for (; over != overflow_.end() && over->first < e.lid; ++over) {
        fn(over->first);
      }
      fn(e.lid);
    }
  }
  for (; over != overflow_.end(); ++over) fn(over->first);
}

std::vector<uint64_t> LogStore::ListLids() const {
  std::vector<uint64_t> out;
  ForEachLid([&out](uint64_t lid) { out.push_back(lid); });
  return out;
}

uint64_t LogStore::IndexBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return index_bytes_;
}

uint64_t LogStore::SizeBytes() const {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (options_.mode == SyncMode::kMemoryOnly) return mem_bytes_;
  uint64_t total = 0;
  for (const auto& [_, seg] : segments_) total += seg.file.size();
  return total;
}

}  // namespace chariots::storage
