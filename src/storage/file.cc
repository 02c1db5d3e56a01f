#include "storage/file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace chariots::storage {

namespace {
std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}
}  // namespace

File::~File() { Close(); }

File::File(File&& other) noexcept : fd_(other.fd_), size_(other.size_) {
  other.fd_ = -1;
  other.size_ = 0;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    size_ = other.size_;
    other.fd_ = -1;
    other.size_ = 0;
  }
  return *this;
}

Result<File> File::OpenAppendable(const std::string& path) {
  int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_APPEND, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("fstat", path));
  }
  return File(fd, static_cast<uint64_t>(st.st_size));
}

Result<File> File::OpenReadOnly(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("fstat", path));
  }
  return File(fd, static_cast<uint64_t>(st.st_size));
}

Status File::Append(std::string_view data) {
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  size_ += data.size();
  return Status::OK();
}

Status File::Appendv(std::span<const std::string_view> parts, bool sync,
                     IoEngine* engine) {
  uint64_t total = 0;
  for (std::string_view p : parts) total += p.size();
  CHARIOTS_RETURN_IF_ERROR(engine->Appendv(fd_, parts, sync));
  size_ += total;
  return Status::OK();
}

Status File::ReadAt(uint64_t offset, size_t n, std::string* out) const {
  out->resize(n);
  char* p = out->data();
  size_t left = n;
  uint64_t off = offset;
  while (left > 0) {
    ssize_t r = ::pread(fd_, p, left, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pread: ") + std::strerror(errno));
    }
    if (r == 0) {
      return Status::OutOfRange("read past end of file");
    }
    p += r;
    off += static_cast<uint64_t>(r);
    left -= static_cast<size_t>(r);
  }
  return Status::OK();
}

Status File::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(std::string("fdatasync: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status File::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError(std::string("ftruncate: ") + std::strerror(errno));
  }
  size_ = size;
  return Status::OK();
}

void File::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status CreateDirIfMissing(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  if (errno == ENOENT) {
    // Create parents first (mkdir -p semantics).
    size_t slash = dir.find_last_of('/');
    if (slash != std::string::npos && slash > 0) {
      CHARIOTS_RETURN_IF_ERROR(CreateDirIfMissing(dir.substr(0, slash)));
      if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
        return Status::OK();
      }
    }
  }
  return Status::IOError(ErrnoMessage("mkdir", dir));
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) == 0) return Status::OK();
  return Status::IOError(ErrnoMessage("unlink", path));
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) == 0) return Status::OK();
  return Status::IOError(ErrnoMessage("rename", from));
}

Status ReadFileToString(const std::string& path, std::string* out) {
  CHARIOTS_ASSIGN_OR_RETURN(File file, File::OpenReadOnly(path));
  return file.ReadAt(0, file.size(), out);
}

Status WriteStringToFileAtomic(const std::string& data,
                               const std::string& path) {
  std::string tmp = path + ".tmp";
  {
    CHARIOTS_ASSIGN_OR_RETURN(File file, File::OpenAppendable(tmp));
    CHARIOTS_RETURN_IF_ERROR(file.Truncate(0));
    CHARIOTS_RETURN_IF_ERROR(file.Append(data));
    CHARIOTS_RETURN_IF_ERROR(file.Sync());
  }
  CHARIOTS_RETURN_IF_ERROR(RenameFile(tmp, path));
  size_t slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos
                     ? "."
                     : path.substr(0, std::max<size_t>(slash, 1)));
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::IOError(ErrnoMessage("opendir", dir));
  std::vector<std::string> names;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(std::move(name));
  }
  ::closedir(d);
  return names;
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", dir));
  Status s;
  if (::fsync(fd) != 0) s = Status::IOError(ErrnoMessage("fsync", dir));
  ::close(fd);
  return s;
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace chariots::storage
