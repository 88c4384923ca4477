// Env: pluggable operating-system environment for all file I/O.
//
// The kernel's durable state (page file, WAL, catalog, storage-method
// snapshots) is read and written exclusively through an Env, so tests can
// substitute a FaultInjectionEnv that simulates crashes, torn writes, and
// failing disks without touching the real filesystem semantics. The default
// Env is a thin POSIX wrapper whose read/write primitives retry EINTR and
// resume short transfers, so callers above never see partial I/O.

#ifndef DMX_UTIL_ENV_H_
#define DMX_UTIL_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/slice.h"
#include "src/util/status.h"

namespace dmx {

/// A file supporting positional reads and writes (pread/pwrite style).
/// Implementations must be safe for concurrent calls on distinct offsets;
/// callers serialize conflicting accesses themselves.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Read up to `n` bytes at `offset` into `scratch`. `*out_n` is the byte
  /// count actually read; it is smaller than `n` only at end of file.
  virtual Status Read(uint64_t offset, size_t n, char* scratch,
                      size_t* out_n) = 0;

  /// Write exactly `n` bytes at `offset` (extending the file if needed).
  virtual Status Write(uint64_t offset, const char* data, size_t n) = 0;

  /// Truncate (or extend with zeros) to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Force written data to stable storage. `data_only` permits fdatasync.
  virtual Status Sync(bool data_only) = 0;

  /// Current file size.
  virtual Status Size(uint64_t* out) = 0;

  /// Close the underlying handle (also done by the destructor).
  virtual Status Close() = 0;
};

/// Factory and filesystem namespace operations. Stateless and long-lived;
/// one Env may serve many databases concurrently. Not owned by callers.
class Env {
 public:
  virtual ~Env() = default;

  /// The process-wide POSIX environment (never deleted).
  static Env* Default();

  /// Open `path` for random-access reads and writes; `create` adds O_CREAT.
  virtual Status NewRandomAccessFile(const std::string& path, bool create,
                                     std::unique_ptr<RandomAccessFile>* out) = 0;

  /// OK if `path` exists, NotFound otherwise.
  virtual Status FileExists(const std::string& path) = 0;
  virtual Status GetFileSize(const std::string& path, uint64_t* out) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  /// Create a directory; OK if it already exists.
  virtual Status CreateDir(const std::string& path) = 0;
  /// fsync a directory so that entries created/renamed inside it survive a
  /// crash. Required after creating the page file or WAL file.
  virtual Status SyncDir(const std::string& path) = 0;
  /// Append the names (not paths) of the entries of directory `path` to
  /// `*out`, excluding "." and "..", in unspecified order. NotFound if the
  /// directory does not exist. WAL segment discovery and restore use this.
  virtual Status ListDir(const std::string& path,
                         std::vector<std::string>* out) = 0;

  /// Make `to` a durable-content replica of `from`: either a hard link
  /// (same bytes, no extra space — the POSIX env when the filesystem
  /// allows it) or a synced byte copy. `to` must not exist. The *entry*
  /// for `to` still needs a SyncDir to survive power loss. The default
  /// implementation copies through the virtual NewRandomAccessFile
  /// primitives, so wrapper envs inject faults and track durability
  /// without extra code.
  virtual Status LinkOrCopyFile(const std::string& from,
                                const std::string& to);

  /// Read an entire file into `*out`. NotFound if it does not exist.
  virtual Status ReadFileToString(const std::string& path, std::string* out);

  /// Durably replace `path` with `data`: write a temp file, sync it,
  /// rename over `path`, and sync the parent directory. After an OK
  /// return the new content survives a crash; on failure the old content
  /// (if any) is still intact — never a torn mixture.
  virtual Status WriteFileAtomic(const std::string& path, const Slice& data);
};

/// Directory component of `path` ("." when there is no slash).
std::string DirnameOf(const std::string& path);

/// Final component of `path` (all of it when there is no slash).
std::string BasenameOf(const std::string& path);

}  // namespace dmx

#endif  // DMX_UTIL_ENV_H_
