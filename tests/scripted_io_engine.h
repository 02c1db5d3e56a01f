// An IoEngine double for tests of the durable write path. It writes through
// the sync engine, so a store under it runs its production call
// path, and it can fail the next fdatasync after the write landed, or hold
// every fdatasync until released — the shape of a slow or failing disk.

#ifndef CHARIOTS_TESTS_SCRIPTED_IO_ENGINE_H_
#define CHARIOTS_TESTS_SCRIPTED_IO_ENGINE_H_

#include <condition_variable>
#include <mutex>
#include <span>
#include <string_view>

#include "storage/io_engine.h"

namespace chariots::storage {

class ScriptedIoEngine : public IoEngine {
 public:
  Status Appendv(int fd, std::span<const std::string_view> parts,
                 bool sync) override {
    CHARIOTS_RETURN_IF_ERROR(
        SyncIoEngine()->Appendv(fd, parts, /*sync=*/false));
    return sync ? Fsync(fd) : Status::OK();
  }

  Status Fsync(int fd) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (fail_next_sync_) {
        fail_next_sync_ = false;
        return Status::IOError("scripted fdatasync failure");
      }
      if (holding_) {
        ++held_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return !holding_; });
        --held_;
      }
    }
    return SyncIoEngine()->Fsync(fd);
  }

  /// The next fdatasync fails; the bytes of its write stay in the file.
  void FailNextSync() {
    std::lock_guard<std::mutex> lock(mu_);
    fail_next_sync_ = true;
  }

  /// From now on every fdatasync blocks until Release().
  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    holding_ = true;
  }

  /// Blocks until an fdatasync is held.
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_ > 0; });
  }

  /// Lets every held fdatasync, and every later one, proceed.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      holding_ = false;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool fail_next_sync_ = false;
  bool holding_ = false;
  int held_ = 0;
};

}  // namespace chariots::storage

#endif  // CHARIOTS_TESTS_SCRIPTED_IO_ENGINE_H_
