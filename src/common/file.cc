#include "src/common/file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/failpoint.h"
#include "src/common/strings.h"

namespace edna {

namespace {

// The one errno mapping. Reads errno, so call it right after the failed call.
Status IoError(const char* op, const std::string& path) {
  const int err = errno;
  std::string msg = StrFormat("%s \"%s\": %s", op, path.c_str(), std::strerror(err));
  return err == ENOENT ? NotFound(std::move(msg)) : Internal(std::move(msg));
}

// "a/b/c" -> "a/b", "c" -> ".", "/c" -> "/"; trailing slashes are ignored.
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/', path.find_last_not_of('/'));
  if (slash == std::string::npos) {
    return ".";
  }
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

File::File(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

File::File(File&& other) noexcept
    : path_(std::move(other.path_)), fd_(std::exchange(other.fd_, -1)) {}

File::~File() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

StatusOr<File> File::Open(const std::string& path, Mode mode) {
  const int fd = mode == Mode::kRead
                     ? ::open(path.c_str(), O_RDONLY | O_CLOEXEC)
                     : ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return IoError("open", path);
  }
  return File(path, fd);
}

Status File::WriteAt(uint64_t offset, const std::vector<uint8_t>& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::pwrite(fd_, bytes.data() + done, bytes.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError("write", path_);
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

StatusOr<std::vector<uint8_t>> File::ReadAt(uint64_t offset, size_t len) const {
  std::vector<uint8_t> bytes(len);
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, bytes.data() + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError("read", path_);
    }
    if (n == 0) {
      return Internal(StrFormat("short read from \"%s\" (%zu of %zu bytes at offset %llu)",
                                path_.c_str(), done, len,
                                static_cast<unsigned long long>(offset)));
    }
    done += static_cast<size_t>(n);
  }
  return bytes;
}

Status File::Sync() {
  if (::fsync(fd_) != 0) {
    return IoError("fsync", path_);
  }
  return OkStatus();
}

Status File::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return IoError("truncate", path_);
  }
  return OkStatus();
}

StatusOr<uint64_t> File::Size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return IoError("stat", path_);
  }
  return static_cast<uint64_t>(st.st_size);
}

StatusOr<std::vector<uint8_t>> ReadFile(const std::string& path) {
  ASSIGN_OR_RETURN(File file, File::Open(path, File::Mode::kRead));
  ASSIGN_OR_RETURN(uint64_t size, file.Size());
  return file.ReadAt(0, static_cast<size_t>(size));
}

Status WriteFileAtomically(const std::string& path, const std::vector<uint8_t>& bytes,
                           const char* rename_failpoint) {
  const std::string tmp = path + ".tmp";
  {
    ASSIGN_OR_RETURN(File file, File::Open(tmp, File::Mode::kReadWrite));
    // A crashed install may have left a longer temporary behind.
    Status written = file.Truncate(0);
    if (written.ok()) {
      written = file.WriteAt(0, bytes);
    }
    if (written.ok()) {
      written = file.Sync();
    }
    if (!written.ok()) {
      ::unlink(tmp.c_str());
      return written;
    }
  }
  if (rename_failpoint != nullptr) {
    EDNA_FAIL_POINT(rename_failpoint);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status renamed = IoError("rename over", path);
    ::unlink(tmp.c_str());
    return renamed;
  }
  return SyncParentDir(path);
}

Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0) {
    return errno == EEXIST ? OkStatus() : IoError("mkdir", path);
  }
  return SyncParentDir(path);
}

Status SyncParentDir(const std::string& path) {
  ASSIGN_OR_RETURN(File dir, File::Open(ParentDir(path), File::Mode::kRead));
  return dir.Sync();
}

StatusOr<std::vector<std::string>> ListDir(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    return IoError("opendir", path);
  }
  std::vector<std::string> names;
  while (const struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") {
      names.push_back(std::move(name));
    }
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) {
    return IoError("unlink", path);
  }
  return OkStatus();
}

}  // namespace edna
