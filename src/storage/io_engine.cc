#include "storage/io_engine.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/metrics.h"

namespace chariots::storage {

namespace {

metrics::Counter* IoBytesWrittenCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.storage.io.bytes_written");
  return c;
}

// Bytes memcpy'd before reaching the kernel: the arena flatten below.
metrics::Counter* IoBytesCopiedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.storage.io.bytes_copied");
  return c;
}

metrics::Counter* IoSubmissionsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.storage.io.submissions");
  return c;
}

Status ErrnoStatus(const char* op, int err) {
  return Status::IOError(std::string(op) + ": " + std::strerror(err));
}

/// Flatten the batch into a reusable arena, one write(2), one fdatasync(2).
class SyncEngineImpl final : public IoEngine {
 public:
  Status Appendv(int fd, std::span<const std::string_view> parts,
                 bool sync) override {
    // Thread-local so concurrent stores don't serialize on one arena;
    // cleared, not shrunk, so steady-state group commits do no allocation.
    thread_local std::string arena;
    arena.clear();
    for (std::string_view p : parts) arena.append(p);
    if (!arena.empty()) {
      IoBytesCopiedCounter()->Add(arena.size());
      IoSubmissionsCounter()->Add();
      const char* p = arena.data();
      size_t left = arena.size();
      while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
          if (errno == EINTR) continue;
          return ErrnoStatus("write", errno);
        }
        p += n;
        left -= static_cast<size_t>(n);
      }
      IoBytesWrittenCounter()->Add(arena.size());
    }
    if (sync) return Fsync(fd);
    return Status::OK();
  }

  Status Fsync(int fd) override {
    if (::fdatasync(fd) != 0) return ErrnoStatus("fdatasync", errno);
    return Status::OK();
  }
};

}  // namespace

IoEngine* SyncIoEngine() {
  static SyncEngineImpl* engine = new SyncEngineImpl();
  return engine;
}

}  // namespace chariots::storage
