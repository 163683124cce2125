#include "common/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

namespace tbf {

namespace {

std::atomic<bool> hooked{false};
FileOpHook hook;  // replaced only while `hooked` is false

void Report(FileOp::Kind kind, std::string_view path,
            std::string_view bytes = {}, uint64_t size = 0,
            std::string_view target = {}) {
  if (hooked.load(std::memory_order_acquire)) {
    hook(FileOp{kind, path, target, bytes, size});
  }
}

// "<what> <path>: <errno text>", read right after the failed call.
Status ErrnoError(std::string_view what, const std::string& path) {
  return Status::IOError(std::string(what) + " " + path + ": " +
                         std::generic_category().message(errno));
}

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return FsyncDir(".");
  if (slash == 0) return FsyncDir("/");
  return FsyncDir(path.substr(0, slash));
}

}  // namespace

void SetFileOpHook(FileOpHook next) {
  hooked.store(false, std::memory_order_release);
  hook = std::move(next);
  hooked.store(static_cast<bool>(hook), std::memory_order_release);
}

// A swap: the file this one held closes with `other`.
AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  std::swap(fd_, other.fd_);
  std::swap(path_, other.path_);
  std::swap(size_, other.size_);
  return *this;
}

Result<AppendFile> AppendFile::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return ErrnoError("cannot create", path);
  Report(FileOp::Kind::kCreate, path);
  return AppendFile(fd, path, 0);
}

Result<AppendFile> AppendFile::CreateDurable(const std::string& path,
                                             std::string_view bytes) {
  TBF_ASSIGN_OR_RETURN(AppendFile file, Create(path));
  TBF_RETURN_NOT_OK(file.Append(bytes));
  TBF_RETURN_NOT_OK(file.Sync());
  TBF_RETURN_NOT_OK(FsyncParentDir(path));
  return file;
}

Result<AppendFile> AppendFile::OpenAt(const std::string& path, uint64_t keep) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return ErrnoError("cannot open", path);
  AppendFile file(fd, path, keep);
  struct stat st {};
  if (::fstat(fd, &st) != 0) return ErrnoError("cannot stat", path);
  if (static_cast<uint64_t>(st.st_size) < keep) {
    return Status::FailedPrecondition(
        path + " holds " + std::to_string(st.st_size) +
        " bytes, fewer than the " + std::to_string(keep) + " to keep");
  }
  if (::ftruncate(fd, static_cast<off_t>(keep)) != 0) {
    return ErrnoError("cannot truncate", path);
  }
  Report(FileOp::Kind::kTruncate, path, {}, keep);
  return file;
}

Status AppendFile::Append(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("append to a closed file");
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ErrnoError("write failed:", path_);
    done += static_cast<size_t>(n);
  }
  size_ += bytes.size();
  Report(FileOp::Kind::kAppend, path_, bytes);
  return Status::OK();
}

Status AppendFile::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("sync of a closed file");
  if (::fsync(fd_) != 0) return ErrnoError("fsync failed:", path_);
  Report(FileOp::Kind::kSync, path_);
  return Status::OK();
}

Status AppendFile::Close() {
  if (fd_ < 0) return Status::OK();
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) return ErrnoError("close failed:", path_);
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) {
    if (errno == ENOENT) return Status::OK();
    return ErrnoError("cannot remove", path);
  }
  Report(FileOp::Kind::kRemove, path);
  return Status::OK();
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return ErrnoError("cannot truncate", path);
  }
  Report(FileOp::Kind::kTruncate, path, {}, size);
  return SyncFile(path);
}

Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("cannot open to sync", path);
  AppendFile file(fd, path, 0);
  TBF_RETURN_NOT_OK(file.Sync());
  return file.Close();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       std::string_view what) {
  const std::string tmp = path + ".tmp";
  const Status written = [&]() -> Status {
    TBF_ASSIGN_OR_RETURN(AppendFile file, AppendFile::Create(tmp));
    TBF_RETURN_NOT_OK(file.Append(bytes));
    TBF_RETURN_NOT_OK(file.Sync());
    TBF_RETURN_NOT_OK(file.Close());
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      return ErrnoError("rename failed: " + tmp + " ->", path);
    }
    Report(FileOp::Kind::kRename, tmp, {}, 0, path);
    return Status::OK();
  }();
  if (!written.ok()) {
    RemoveFile(tmp).ok();  // best effort; the error below is what matters
    return Status::IOError(std::string(what) +
                           " write failed: " + written.message());
  }
  // The rename entry lives in the directory, not the file: without this
  // sync a power failure can forget the publication (or resurrect the
  // previous file) even though the data blocks were fsync'd above.
  return FsyncParentDir(path);
}

Status FsyncDir(const std::string& dir_path) {
  const int fd = ::open(dir_path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("cannot open directory for fsync:", dir_path);
  const Status synced = ::fsync(fd) == 0
                            ? Status::OK()
                            : ErrnoError("directory fsync failed:", dir_path);
  ::close(fd);
  if (synced.ok()) Report(FileOp::Kind::kSyncDir, dir_path);
  return synced;
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListNumberedFiles(
    const std::string& dir, std::string (*name_of)(uint64_t)) {
  std::vector<std::pair<uint64_t, std::string>> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const size_t digits = name.find_first_of("0123456789");
    if (digits == std::string::npos) continue;
    const uint64_t n = std::strtoull(name.c_str() + digits, nullptr, 10);
    if (name == name_of(n)) files.emplace_back(n, entry.path().string());
  }
  if (ec) {
    return Status::IOError("cannot list directory " + dir + ": " +
                           ec.message());
  }
  std::sort(files.begin(), files.end());
  return files;
}

Result<std::string> ReadFileToString(const std::string& path,
                                     std::string_view what) {
  const std::string label(what);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open " + label + ": " + path);
  }
  // One read of the size the file has now, straight into the result. A
  // directory, an unreadable file or a file that ends early fails: callers
  // treat a short result as damage (a torn journal tail, a cut log).
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  std::string bytes;
  size_t got = 0;
  if (!ec) {
    bytes.resize(size);
    got = std::fread(bytes.data(), 1, bytes.size(), file);
  }
  const bool failed = ec || got != bytes.size() || std::ferror(file) != 0;
  std::fclose(file);
  if (ec) {
    return Status::IOError("cannot read " + label + ": " + path + ": " +
                           ec.message());
  }
  if (failed) {
    return Status::IOError("cannot read " + label + ": " + path + ": read " +
                           std::to_string(got) + " of " +
                           std::to_string(bytes.size()) + " bytes");
  }
  return bytes;
}

}  // namespace tbf
