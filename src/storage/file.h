#ifndef CHARIOTS_STORAGE_FILE_H_
#define CHARIOTS_STORAGE_FILE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_engine.h"

namespace chariots::storage {

/// Thin RAII wrapper over a POSIX file descriptor with the small set of
/// operations the segment store needs: append, positional read, fsync.
class File {
 public:
  File() = default;
  ~File();

  File(const File&) = delete;
  File& operator=(const File&) = delete;
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;

  /// Opens (creating if needed) `path` for appending + reading.
  static Result<File> OpenAppendable(const std::string& path);

  /// Opens an existing file read-only.
  static Result<File> OpenReadOnly(const std::string& path);

  /// Appends `data` at the end of file; advances the logical size.
  Status Append(std::string_view data);

  /// Vectored append through `engine` (DESIGN.md §15): writes every part,
  /// in order, as one logical operation, durable before returning when
  /// `sync` is set. Advances the logical size only on success — on error
  /// the tail is untrusted and recovery's torn-tail scan owns it.
  Status Appendv(std::span<const std::string_view> parts, bool sync,
                 IoEngine* engine);

  /// Reads exactly `n` bytes at `offset` into `out` (resized). Returns
  /// OutOfRange if the file ends before `offset + n`.
  Status ReadAt(uint64_t offset, size_t n, std::string* out) const;

  /// Flushes data to stable storage (fdatasync).
  Status Sync();

  /// Truncates the file to `size` bytes (used to drop a torn tail).
  Status Truncate(uint64_t size);

  uint64_t size() const { return size_; }
  bool is_open() const { return fd_ >= 0; }
  /// Raw descriptor for engine-level operations (fault injection decomposes
  /// write and sync into separate engine calls against this fd).
  int fd() const { return fd_; }

  void Close();

 private:
  File(int fd, uint64_t size) : fd_(fd), size_(size) {}

  int fd_ = -1;
  uint64_t size_ = 0;
};

/// Filesystem helpers used by the segment manager.
Status CreateDirIfMissing(const std::string& dir);
Status RemoveFile(const std::string& path);
/// Atomic replace (POSIX rename semantics).
Status RenameFile(const std::string& from, const std::string& to);
/// Reads a whole (small) file into `out`.
Status ReadFileToString(const std::string& path, std::string* out);
/// Writes `data` to `path` atomically (temp file + fsync + rename + fsync
/// of the parent directory).
Status WriteStringToFileAtomic(const std::string& data,
                               const std::string& path);
Result<std::vector<std::string>> ListDir(const std::string& dir);
/// Makes the entries of `dir` durable (fsync on the directory): a file
/// created in or renamed into it survives a power loss only after this.
Status SyncDir(const std::string& dir);
bool FileExists(const std::string& path);

}  // namespace chariots::storage

#endif  // CHARIOTS_STORAGE_FILE_H_
