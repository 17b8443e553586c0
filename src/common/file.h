// File I/O: the one module that calls the file system. The WAL, the durable
// data directory, the page cache's extent files, database images, the shard
// manifest and the CLI's files all go through it, so the durability protocol
// and the error mapping each live in one place.
//
// Errors: a missing file or directory (ENOENT) is kNotFound; any other
// failure is kInternal, and its message names the operation, the path and
// the system's error text.
#ifndef SRC_COMMON_FILE_H_
#define SRC_COMMON_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace edna {

// An open file; the descriptor is closed when the File is destroyed. Reads
// and writes take explicit offsets, so a File keeps no position.
class File {
 public:
  enum class Mode {
    kRead,       // an existing file, read-only
    kReadWrite,  // read-write; created empty (0644) if absent, never truncated
  };

  static StatusOr<File> Open(const std::string& path, Mode mode);

  File(File&& other) noexcept;
  File& operator=(File&&) = delete;
  ~File();

  // Writes every byte of `bytes` at `offset`, or fails. A failed write may
  // have written a prefix.
  Status WriteAt(uint64_t offset, const std::vector<uint8_t>& bytes);

  // Reads exactly `len` bytes at `offset`; a file that ends sooner is
  // kInternal.
  StatusOr<std::vector<uint8_t>> ReadAt(uint64_t offset, size_t len) const;

  // Writes and truncations reach the OS only; Sync makes them durable.
  Status Sync();
  Status Truncate(uint64_t size);
  StatusOr<uint64_t> Size() const;

 private:
  File(std::string path, int fd);

  std::string path_;
  int fd_ = -1;
};

// The whole content of the file at `path`.
StatusOr<std::vector<uint8_t>> ReadFile(const std::string& path);

// Replaces the file at `path` with `bytes` crash-atomically: writes
// `path`.tmp, syncs it, renames it over `path`, then syncs the directory. A
// crash leaves either the old file or the new one, never a mix. A failed
// write or rename removes the temporary. `rename_failpoint`, if given, is
// evaluated between the temporary's sync and the rename: the window in which
// the new file is complete but not yet visible. A fail point that fires
// there leaves the temporary behind, as a crash would.
Status WriteFileAtomically(const std::string& path, const std::vector<uint8_t>& bytes,
                           const char* rename_failpoint = nullptr);

// Creates the directory `path` (its parent must exist) unless it exists, and
// syncs the parent when it creates it.
Status MakeDir(const std::string& path);

// Syncs the directory that holds `path`, so an entry just created or renamed
// there survives a crash.
Status SyncParentDir(const std::string& path);

// The names in directory `path`, sorted, without "." and "..".
StatusOr<std::vector<std::string>> ListDir(const std::string& path);

Status RemoveFile(const std::string& path);

}  // namespace edna

#endif  // SRC_COMMON_FILE_H_
