#ifndef CHARIOTS_STORAGE_LOG_STORE_H_
#define CHARIOTS_STORAGE_LOG_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/fault_injection.h"
#include "storage/file.h"

namespace chariots::storage {

/// Durability of a LogStore: the one setting that decides whether, and when,
/// a write reaches stable storage.
enum class SyncMode {
  /// No files at all — records live in memory only. Used by throughput
  /// benches where the paper's machines buffered in RAM anyway.
  kMemoryOnly,
  /// Segment files through the OS page cache, never fdatasynced implicitly;
  /// only an explicit Sync() makes them durable.
  kBuffered,
  /// Every write call is fdatasynced before it is published or acked: one
  /// fdatasync per AppendBatch (group commit — a single Append is a batch of
  /// one) and one per Remove tombstone.
  kFsyncEach,
};

/// Where a record's payload lives: segment id + payload offset + length.
struct RecordLocation {
  uint64_t segment_id = 0;
  uint64_t offset = 0;  ///< payload offset within the segment file
  uint32_t length = 0;

  friend bool operator==(const RecordLocation&,
                         const RecordLocation&) = default;
};

struct LogStoreOptions {
  /// Directory for segment files. Required unless mode == kMemoryOnly.
  std::string dir;
  SyncMode mode = SyncMode::kBuffered;
  /// Rotate the active segment once it exceeds this many bytes.
  uint64_t segment_bytes = 64ull << 20;
  /// Optional scripted disk-fault plan every segment file routes its writes
  /// and syncs through (crash-consistency tests). Null = real disk only.
  DiskFaultSchedule* disk_faults = nullptr;
  /// Test seam for the append path (DESIGN.md §15): a test sets an engine
  /// that fails a scripted write or fsync. Null selects SyncIoEngine(),
  /// which is what every production store runs.
  IoEngine* io_engine = nullptr;
};

/// One record of a batched append: position + payload. The payload view must
/// stay valid for the duration of the AppendBatch call.
struct AppendEntry {
  uint64_t lid = 0;
  std::string_view payload;
};

/// Persistent map from log position (LId) to record payload, backed by
/// append-only CRC-framed segment files.
///
/// This is the storage engine under a FLStore log maintainer. A maintainer
/// owns non-contiguous LId ranges (round-robin striping), so the store keys
/// frames by an explicit LId rather than by implicit sequence.
///
/// On-disk frame format (little endian):
///   u32 masked CRC32C (over the rest of the frame)
///   u8  frame type (0 = data, 1 = tombstone)
///   u32 payload length (0 for tombstones)
///   u64 lid
///   payload bytes
///
/// Recovery scans segments in id order rebuilding the index; a damaged frame
/// in the *last* segment is treated as a torn write and the tail is
/// truncated; damage anywhere else is reported as Corruption.
///
/// Concurrency (DESIGN.md §11): readers never wait on disk I/O. Writers
/// serialize on a writer mutex held across framing, the write and the
/// fdatasync; the readers' lock is taken only to publish the result, and
/// AppendBatch publishes only after its fdatasync returned OK, so a reader
/// never sees a record that is not durable.
///
/// The LId index is dense (DESIGN.md §11): each segment keeps its data
/// frames' (lid, offset, length) in file order, 16 B per record, for every
/// frame appended above the highest lid indexed so far — group commits and
/// each striped maintainer's runs. Any other lid (hole fill, rewrite after a
/// tombstone, out-of-order landing) goes to a small overflow map. No record
/// costs a heap node of its own on the in-order path.
class LogStore {
 public:
  explicit LogStore(LogStoreOptions options);
  ~LogStore();

  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  /// Opens the store, creating the directory and recovering any existing
  /// segments. Must be called before any other method.
  Status Open();

  /// Closes the store: releases segment file handles and clears the
  /// in-memory index, so a subsequent Open() re-runs recovery from disk.
  /// Does NOT sync — pair with Sync() for a graceful shutdown; Close()
  /// alone models a crash (kMemoryOnly contents are simply lost). No-op if
  /// not open.
  Status Close();

  /// Appends a record at position `lid`. Returns AlreadyExists if that lid
  /// is present (idempotent-write guard). Implemented as AppendBatch of one.
  Status Append(uint64_t lid, std::string_view payload);

  /// Group-commit append: validates every entry (AlreadyExists if any lid is
  /// present or duplicated within the batch — nothing is written in that
  /// case), encodes all frames into one reusable arena buffer, issues a
  /// single file write, and applies the sync policy once for the whole
  /// batch. The records become visible to readers only once that write (and
  /// its sync, if any) returned OK. A failed write is truncated away; if
  /// even that fails, every later append is refused until the store is
  /// reopened. A strictly increasing batch is checked for repeats in one
  /// scan; any other order pays for a set.
  Status AppendBatch(std::span<const AppendEntry> entries);

  /// Removes the record at `lid` by appending a tombstone frame (the log is
  /// append-only; the data frame stays on disk but is dead after recovery).
  /// Used by crash recovery to discard records beyond a hole. NotFound if
  /// absent.
  Status Remove(uint64_t lid);

  /// Reads the record at `lid`; NotFound if absent (gap or GC'd).
  Result<std::string> Get(uint64_t lid) const;

  /// Where the record at `lid` lives; NotFound if absent. kMemoryOnly
  /// stores synthesize {0, 0, payload size}.
  Result<RecordLocation> Locate(uint64_t lid) const;

  bool Contains(uint64_t lid) const;

  /// Forces buffered data to stable storage. Readers are not blocked.
  Status Sync();

  /// Garbage-collects whole segments whose records all have lid < `horizon`.
  /// If `archive_path` is non-empty, eligible segments are first appended to
  /// the cold-storage archive file (paper §6.1: users may archive rather
  /// than discard). Records in partially-eligible segments are kept. Index
  /// work is proportional to the dropped segments' own records.
  Status TruncateBelow(uint64_t horizon, const std::string& archive_path = "");

  /// Number of live records.
  uint64_t count() const;

  /// Largest lid ever appended (0 if empty — check count() first).
  uint64_t max_lid() const;

  /// Calls `fn` for every live lid in ascending order, under the store's
  /// shared lock: `fn` must not call back into the store.
  void ForEachLid(const std::function<void(uint64_t)>& fn) const;

  /// Sorted list of live lids (test/diagnostic helper).
  std::vector<uint64_t> ListLids() const;

  /// Heap bytes held by the LId index: dense entries (by capacity), the
  /// overflow map and the per-segment lookup nodes. 0 in kMemoryOnly. The
  /// process-wide sum is the gauge chariots.storage.log_store.index_bytes.
  uint64_t IndexBytes() const;

  /// Total bytes across live segment files (kMemoryOnly: payload bytes).
  uint64_t SizeBytes() const;

 private:
  /// One data frame in a segment's dense index. `offset` is the payload's
  /// offset in the segment file; 0 marks the entry dead (tombstoned, or
  /// superseded by an overflow entry) — no payload starts at 0, a frame
  /// header precedes it.
  struct IndexEntry {
    uint64_t lid = 0;
    uint32_t offset = 0;
    uint32_t length = 0;
  };

  /// Readers use a segment's `id`, `entries` and `file` descriptor (pread);
  /// the file's size and every other field are writer-side state.
  struct Segment {
    FaultInjectingFile file;
    std::string path;
    uint64_t id = 0;
    uint64_t min_lid = UINT64_MAX;
    uint64_t max_lid = 0;
    uint64_t records = 0;
    /// Lids tombstoned by frames in this segment. GC re-appends them to
    /// the active segment before dropping this one, so a dead data frame
    /// surviving in another segment can never resurrect on recovery.
    std::vector<uint64_t> tombstones;
    /// Dense index: data frames in file order, lids strictly increasing
    /// within the segment and above every earlier segment's entries.
    std::vector<IndexEntry> entries;
    /// Lids whose overflow_ entry was placed in this segment, so dropping
    /// the segment touches only its own records. May hold stale lids.
    std::vector<uint64_t> overflow_lids;
  };

  // Locking: FindDenseLocked and LookupLocked need mu_ or write_mu_ held;
  // every other `...Locked` helper needs write_mu_, plus mu_ exclusive
  // where marked "under mu_" (it changes state readers see).

  Status RecoverSegment(uint64_t segment_id, bool is_last);
  /// Drops all in-memory state (Close, failed Open). Under mu_.
  void ResetLocked();
  /// AlreadyExists if any lid of the batch is live or repeats in it.
  Status ValidateBatchLocked(std::span<const AppendEntry> entries) const;
  /// The dense entry (live or dead) for `lid`, or null; `*owner` receives
  /// its segment.
  IndexEntry* FindDenseLocked(uint64_t lid, const Segment** owner) const;
  std::optional<RecordLocation> LookupLocked(uint64_t lid) const;
  /// Indexes a data frame of `seg` whose lid is not live. Under mu_.
  void IndexInsertLocked(Segment& seg, uint64_t lid, uint64_t offset,
                         uint32_t length);
  /// Kills `lid`'s live index entry; false if it had none. Under mu_.
  bool IndexEraseLocked(uint64_t lid);
  /// Appends the lids whose live index entry points into `seg` to `*out`.
  void CollectLiveLidsLocked(const Segment& seg,
                             std::vector<uint64_t>* out) const;
  /// Drops the index entries of a segment that GC is deleting; the lids
  /// that were live die. Under mu_.
  void DropSegmentIndexLocked(Segment& seg);
  /// Under mu_.
  void AddIndexBytesLocked(int64_t delta);
  /// Opens the next segment when the active one is full; takes mu_ only to
  /// insert it into segments_.
  Status RotateIfNeededLocked();
  /// Error once a failed append could not be truncated away: the active
  /// segment's tail then holds bytes its size does not count.
  Status CheckTailLocked() const;
  /// Truncates `seg` back to `base` after the append that started there
  /// failed (its bytes may have landed though the file size did not
  /// advance); returns `failure`.
  Status RollBackLocked(Segment& seg, uint64_t base, Status failure);
  /// Whether a write call must be fdatasynced before it is published.
  bool SyncsEachWrite() const { return options_.mode == SyncMode::kFsyncEach; }
  std::string SegmentPath(uint64_t segment_id) const;

  const LogStoreOptions options_;
  IoEngine* const engine_;

  /// Writer mutex: serializes Open, Close, AppendBatch, Remove, Sync,
  /// TruncateBelow and rotation, and is held across their file I/O. Its
  /// holder is the only mutator, so it reads the index without mu_. Taken
  /// before mu_. SizeBytes takes it too: file sizes are writer-side state.
  mutable std::mutex write_mu_;
  /// Readers' lock: Get/Locate/Contains and the metadata accessors take it
  /// shared (record reads are pread-based, so readers proceed in
  /// parallel). A writer takes it exclusive only to publish changes to the
  /// state below — never across I/O, except in Open and Close, while the
  /// store is not serving.
  mutable std::shared_mutex mu_;
  bool open_ = false;
  std::map<uint64_t, Segment> segments_;        // by segment id
  /// First dense lid of each segment with entries -> that segment (node
  /// addresses in segments_ are stable).
  std::map<uint64_t, Segment*> dense_starts_;
  /// Live records the dense index cannot hold: lids below dense_next_, or a
  /// payload offset beyond 4 GiB. Checked before the dense entries.
  std::map<uint64_t, RecordLocation> overflow_;
  /// Lowest lid the dense index accepts next (last dense lid + 1).
  uint64_t dense_next_ = 0;
  uint64_t index_bytes_ = 0;
  std::unordered_map<uint64_t, std::string> mem_;  // kMemoryOnly payloads
  uint64_t max_lid_ = 0;
  uint64_t count_ = 0;
  uint64_t mem_bytes_ = 0;

  // Writer-side state below: write_mu_ only.

  /// Set when a failed append could not be truncated away (see
  /// CheckTailLocked); cleared by reopening.
  bool tail_dirty_ = false;
  uint64_t next_segment_id_ = 0;
  /// Reusable batch-encoding buffer; cleared (not shrunk) between batches so
  /// steady-state appends do no allocation. Since the zero-copy refactor it
  /// holds only the fixed-size frame HEADERS of a batch (kFrameHeaderBytes
  /// per record) — payload bytes are borrowed from the caller and submitted
  /// as their own iovec entries, never copied here.
  std::string arena_;
  /// Reusable iovec view list for the vectored append (header, payload,
  /// header, payload, ...).
  std::vector<std::string_view> parts_;
};

}  // namespace chariots::storage

#endif  // CHARIOTS_STORAGE_LOG_STORE_H_
