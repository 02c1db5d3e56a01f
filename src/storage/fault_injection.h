#ifndef CHARIOTS_STORAGE_FAULT_INJECTION_H_
#define CHARIOTS_STORAGE_FAULT_INJECTION_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/file.h"

namespace chariots::storage {

/// A scriptable disk-fault plan shared by every FaultInjectingFile of a
/// store. Mirrors net::FaultSchedule for the storage layer: rules fire on
/// the Nth operation matching a path substring (counted per rule, 1-based),
/// and a seed resolves any rule parameters the script leaves open — so a
/// failing run replays exactly from its script and seed.
///
/// Fault shapes:
///  * torn write   — only the first `keep_bytes` of the data reach the file,
///    then the write reports IOError (a crash mid-write: the frame on disk
///    is short and fails its CRC on recovery).
///  * failed write — nothing reaches the file, IOError.
///  * failed sync  — fdatasync is not performed, IOError (the device
///    rejected the flush; callers must not ack).
///  * dropped sync — fdatasync is skipped but OK is returned (a lying disk
///    with a volatile cache; the loss only materializes at SimulateCrash).
///
/// Torn writes, failed writes, and failed syncs also latch the schedule into
/// a crashed state: every later write, sync or truncate through it fails,
/// so a store cannot roll the failed append back either, modeling a
/// disk that is gone rather than one that hiccups and heals. (A store that
/// acked appends *after* such a fault would resurrect unacked bytes on
/// recovery.)
///
/// SimulateCrash() is the power-loss model: every tracked file is truncated
/// back to its last effectively-synced size, discarding page-cache bytes
/// that never reached the platter. Call it with the owning store closed,
/// between Close() and the re-Open() that runs recovery.
///
/// Thread-safe; one schedule may back many files.
class DiskFaultSchedule {
 public:
  explicit DiskFaultSchedule(uint64_t seed = 1) : rng_(seed) {}

  // ------------------------------------------------------- scripted rules
  // `path_substr` selects files whose path contains it ("" = every file);
  // `nth` counts that rule's matching ops, 1-based.

  /// The Nth matching write persists only its first `keep_bytes` bytes and
  /// fails; the schedule latches crashed.
  void TornWriteNth(std::string path_substr, uint64_t nth,
                    uint64_t keep_bytes);

  /// The Nth matching write persists nothing and fails; latches crashed.
  void FailWriteNth(std::string path_substr, uint64_t nth);

  /// The Nth matching sync is not performed and fails; latches crashed.
  void FailSyncNth(std::string path_substr, uint64_t nth);

  /// The Nth matching sync is silently skipped (reported OK) — data since
  /// the previous real sync stays volatile until the next real sync.
  void DropSyncNth(std::string path_substr, uint64_t nth);

  /// Parses a comma-separated rule script, e.g.
  ///   "torn_write@seg:3:10,fail_sync@dedup:2,drop_sync@seg:?"
  /// Each rule is kind@path_substr:nth[:keep_bytes]; a `?` for nth or
  /// keep_bytes draws a small value from the schedule's seeded PRNG (this is
  /// how one seed scripts a whole matrix of fault shapes).
  Status AddFromSpec(const std::string& spec);

  // ---------------------------------------------------------- crash model

  /// Power loss: truncates every tracked file to its last effectively-synced
  /// size (dropped syncs did not advance it). Files must be closed by their
  /// owners first. Tracking and the crashed latch are reset so the store can
  /// be reopened through the same schedule.
  Status SimulateCrash();

  /// True once a torn/failed write or failed sync has fired.
  bool crashed() const;

  /// Total faults fired so far (all kinds).
  uint64_t faults_injected() const;

  /// Drops all rules, tracking, counters, and the crashed latch.
  void Clear();

  // ----------------------------------------------- hooks (FaultInjectingFile)

  struct WriteDecision {
    /// Bytes to persist (== len when no fault).
    uint64_t keep_bytes = 0;
    bool fail = false;
  };
  struct SyncDecision {
    bool fail = false;
    bool drop = false;
  };

  void OnOpen(const std::string& path, uint64_t size);
  WriteDecision OnWrite(const std::string& path, uint64_t len);
  SyncDecision OnSync(const std::string& path);
  /// IOError once crashed (the disk is gone); otherwise tracks the size.
  Status OnTruncate(const std::string& path, uint64_t size);

 private:
  enum class Kind { kTornWrite, kFailWrite, kFailSync, kDropSync };

  struct Rule {
    Kind kind;
    std::string path_substr;
    uint64_t nth = 1;
    uint64_t keep_bytes = 0;
    uint64_t matches = 0;  // matching ops seen so far
    bool fired = false;
  };

  /// Durability tracking for SimulateCrash.
  struct FileState {
    uint64_t size = 0;    // logical size incl. unsynced bytes
    uint64_t synced = 0;  // size as of the last *real* sync
  };

  void AddRuleLocked(Kind kind, std::string path_substr, uint64_t nth,
                     uint64_t keep_bytes);

  mutable std::mutex mu_;
  std::vector<Rule> rules_;
  std::unordered_map<std::string, FileState> files_;
  Random rng_;
  uint64_t injected_ = 0;
  bool crashed_ = false;
};

/// Drop-in replacement for storage::File that routes every write, sync, and
/// truncate through an optional DiskFaultSchedule. With a null schedule it
/// is a plain pass-through; LogStore and the dedup sidecar hold their
/// segment files through this type so disk-fault tests need no special
/// build.
class FaultInjectingFile {
 public:
  FaultInjectingFile() = default;

  static Result<FaultInjectingFile> OpenAppendable(
      const std::string& path, DiskFaultSchedule* faults = nullptr);

  Status Append(std::string_view data);

  /// Vectored append + optional durability through `engine`. With no
  /// schedule attached this is one engine call. With faults armed the
  /// operation decomposes into an engine write then an engine fsync so
  /// torn-write/failed-sync/dropped-sync decisions compose with the
  /// engine exactly as they do with the scalar Append/Sync pair: a torn
  /// write persists the trimmed prefix (through the engine) and fails, a
  /// dropped sync reports OK without flushing, etc.
  Status AppendvAndSync(std::span<const std::string_view> parts, bool sync,
                        IoEngine* engine);

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const;
  Status Sync();
  Status Truncate(uint64_t size);

  uint64_t size() const { return file_.size(); }
  bool is_open() const { return file_.is_open(); }
  void Close() { file_.Close(); }

 private:
  File file_;
  std::string path_;
  DiskFaultSchedule* faults_ = nullptr;
};

}  // namespace chariots::storage

#endif  // CHARIOTS_STORAGE_FAULT_INJECTION_H_
