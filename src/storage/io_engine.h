#ifndef CHARIOTS_STORAGE_IO_ENGINE_H_
#define CHARIOTS_STORAGE_IO_ENGINE_H_

#include <span>
#include <string_view>

#include "common/status.h"

namespace chariots::storage {

/// Storage I/O seam behind File/LogStore (DESIGN.md §15). Production runs
/// one implementation, SyncIoEngine(); the interface exists so tests can
/// script a failing write or fsync (ScriptedIoEngine, FailingIoEngine)
/// beneath an unmodified LogStore.
///
/// The contract:
///  * Appendv writes every byte of `parts`, in order, at the end of `fd`
///    (the fd is opened O_APPEND) as ONE logical operation — a batch of
///    frames submitted together lands contiguously.
///  * When `sync` is set, the data is on stable storage before Appendv
///    returns OK.
///  * An error return means the bytes must be treated as not durable; the
///    file tail is untrusted (LogStore truncates it back; recovery's
///    torn-tail scan handles what a failed truncate leaves).
///
/// Engines are stateless from the caller's perspective and safe to share
/// across files and threads.
class IoEngine {
 public:
  virtual ~IoEngine() = default;

  /// Vectored append + optional durability. `parts` views must stay valid
  /// for the call.
  virtual Status Appendv(int fd, std::span<const std::string_view> parts,
                         bool sync) = 0;

  /// Standalone fdatasync through the engine.
  virtual Status Fsync(int fd) = 0;
};

/// The storage engine: parts are flattened into a reusable (thread-local)
/// arena, written with one write(2), then fdatasync(2) when asked. A
/// group commit is therefore one write and at most one fdatasync.
/// Process-wide singleton.
IoEngine* SyncIoEngine();

}  // namespace chariots::storage

#endif  // CHARIOTS_STORAGE_IO_ENGINE_H_
