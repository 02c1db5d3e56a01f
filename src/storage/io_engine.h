#ifndef CHARIOTS_STORAGE_IO_ENGINE_H_
#define CHARIOTS_STORAGE_IO_ENGINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace chariots::storage {

/// Storage I/O backend behind File/LogStore (DESIGN.md §15). One engine
/// instance serves any number of files and threads.
///
/// The contract both backends honor:
///  * Appendv writes every byte of `parts`, in order, at the end of `fd`
///    (the fd is opened O_APPEND) as ONE logical operation — a batch of
///    frames submitted together lands contiguously.
///  * When `sync` is set, the data is on stable storage before Appendv
///    returns OK. The uring engine links the write and the fdatasync SQEs
///    so the pair costs a single io_uring_enter; the sync engine issues
///    write(2) then fdatasync(2).
///  * An error return means the bytes must be treated as not durable; the
///    file tail is untrusted (LogStore truncates it back; recovery's
///    torn-tail scan handles what a failed truncate leaves).
///
/// Engines are stateless from the caller's perspective and safe to share;
/// the uring engine serializes submissions on an internal mutex (group
/// commit already serializes per store, so this is not a hot lock).
class IoEngine {
 public:
  virtual ~IoEngine() = default;

  virtual const char* name() const = 0;

  /// Vectored append + optional durability, as one submission when the
  /// backend supports it. `parts` views must stay valid for the call.
  virtual Status Appendv(int fd, std::span<const std::string_view> parts,
                         bool sync) = 0;

  /// Standalone fdatasync through the engine.
  virtual Status Fsync(int fd) = 0;
};

/// The portable fallback: the pre-io_uring synchronous path, verbatim —
/// parts are flattened into a reusable (thread-local) arena, written with
/// one write(2), then fdatasync(2) when asked. Process-wide singleton.
IoEngine* SyncIoEngine();

/// True when this kernel/container can set up an io_uring with the ops the
/// uring engine needs (probed once, cached). False on old kernels and under
/// seccomp policies that block the io_uring syscalls.
bool IoUringAvailable();

/// The io_uring engine singleton, or null when unavailable.
IoEngine* UringIoEngine();

/// Maps an --io_engine flag value to an engine: "uring" returns the
/// io_uring engine, downgrading to the sync engine with a logged warning
/// when the kernel lacks io_uring; "sync" (and "", for defaults) returns
/// the sync engine; anything else warns and returns the sync engine.
IoEngine* ResolveIoEngine(std::string_view name);

/// Engine named by $CHARIOTS_IO_ENGINE (how the test/crash-matrix scripts
/// run the storage suites under both backends), else the sync engine.
IoEngine* IoEngineFromEnv();

}  // namespace chariots::storage

#endif  // CHARIOTS_STORAGE_IO_ENGINE_H_
