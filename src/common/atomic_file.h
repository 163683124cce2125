// How bytes become durable. Every create, append, sync, rename, remove
// and truncate of a durable file in the library goes through this module:
// the journal's segments (serve/wal.cc), the outcome log (ReplayStore in
// serve/recovery.cc) and every whole-file artifact published atomically
// (replay checkpoints in serve/checkpoint.cc, tree snapshots in
// hst/snapshot.cc). What goes *in* those files is common/frames.h's CRC
// frame stream; this module only gets the bytes onto disk and back.
//
// Crash model. After a power loss, the power-loss drill
// (tests/chaos/power_loss_test.cc) assumes only what POSIX promises:
//   * a file holds the bytes it held at its last Sync, plus some prefix
//     of the appends and truncations issued since, in order, the last
//     append possibly cut at any byte;
//   * each create, rename and remove issued in a directory since its
//     last FsyncDir may or may not have happened, independently of the
//     others (a rename happens whole or not at all).
// Bytes a Sync covered and entries an FsyncDir covered survive. The drill
// builds those crash states at every operation a durable replay and its
// recovery perform, and requires each one to recover to the uninterrupted
// run.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace tbf {

/// \brief One durable file operation, as reported to the FileOpHook once
/// it has succeeded.
struct FileOp {
  enum class Kind {
    kCreate,    ///< `path` created empty (an existing file is cut to 0)
    kAppend,    ///< `bytes` written at the end of `path`
    kSync,      ///< fsync of `path`
    kTruncate,  ///< `path` cut to `size` bytes
    kRename,    ///< `path` renamed over `target`
    kRemove,    ///< `path` unlinked
    kSyncDir,   ///< fsync of the directory `path`
  };
  Kind kind = Kind::kCreate;
  std::string_view path;
  std::string_view target;
  std::string_view bytes;
  uint64_t size = 0;
};

using FileOpHook = std::function<void(const FileOp&)>;

/// \brief Installs the process-wide hook that sees every operation below;
/// an empty hook removes it. For tests, like fault::ScopedFaultPlan: the
/// hook must not be swapped while another thread performs file operations.
void SetFileOpHook(FileOpHook hook);

/// \brief An append-only file, the one way the library writes a durable
/// file. Move-only; the destructor closes without reporting (Close does).
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { Close().ok(); }
  AppendFile(AppendFile&& other) noexcept { *this = std::move(other); }
  AppendFile& operator=(AppendFile&& other) noexcept;

  /// Creates `path` empty, cutting any file already there. The directory
  /// entry is durable once the parent directory is synced.
  static Result<AppendFile> Create(const std::string& path);

  /// Create, append `bytes`, Sync, then FsyncDir of the parent: a new
  /// file whose first bytes and directory entry both survive power loss.
  static Result<AppendFile> CreateDurable(const std::string& path,
                                          std::string_view bytes);

  /// Opens the existing `path` to append after its first `keep` bytes,
  /// cutting the rest (durable with the next Sync). FailedPrecondition when
  /// the file is shorter than `keep`.
  static Result<AppendFile> OpenAt(const std::string& path, uint64_t keep);

  /// Writes all of `bytes` at the end of the file (no fsync).
  Status Append(std::string_view bytes);
  /// fsyncs the file: its bytes and length survive power loss.
  Status Sync();
  /// Closes the file; a close error is returned. Closing twice is OK.
  Status Close();

  uint64_t size() const { return size_; }

 private:
  friend Status SyncFile(const std::string& path);
  AppendFile(int fd, std::string path, uint64_t size)
      : fd_(fd), path_(std::move(path)), size_(size) {}

  int fd_ = -1;
  std::string path_;
  uint64_t size_ = 0;
};

/// \brief Unlinks `path`. A missing file is OK; any other failure is an
/// IOError. The removal is durable once the parent directory is synced.
Status RemoveFile(const std::string& path);

/// \brief Cuts `path` to `size` bytes and fsyncs it, so the cut survives
/// power loss.
Status TruncateFile(const std::string& path, uint64_t size);

/// \brief fsyncs the existing file `path`, whoever wrote it: bytes an
/// earlier process left in the page cache survive power loss.
Status SyncFile(const std::string& path);

/// \brief Atomic publication: writes to `<path>.tmp`, fsyncs, then
/// renames over `path` and fsyncs the parent directory. A crash leaves
/// the previous file or a stray `<path>.tmp`, never a torn file. On
/// failure the tmp file is removed and `path` is untouched; `what` labels
/// the IOError message.
Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       std::string_view what);

/// \brief fsyncs a directory, making its entries (freshly created,
/// renamed or removed files) durable across power loss.
Status FsyncDir(const std::string& dir_path);

/// \brief The files in `dir` named `name_of(n)` for some n, as (n, path)
/// by n ascending. IOError when `dir` cannot be listed.
Result<std::vector<std::pair<uint64_t, std::string>>> ListNumberedFiles(
    const std::string& dir, std::string (*name_of)(uint64_t));

/// \brief Reads a whole file (binary-safe). IOError when it cannot be
/// opened, is not a regular file's bytes (a directory), or reads short or
/// with an error: never a silently shorter result.
Result<std::string> ReadFileToString(const std::string& path,
                                     std::string_view what);

}  // namespace tbf
