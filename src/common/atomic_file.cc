#include "common/atomic_file.h"

#include <cstdio>
#include <filesystem>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace tbf {

Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       std::string_view what) {
  const std::string label(what);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open " + label + " tmp file: " + tmp);
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  bool ok = written == bytes.size() && std::fflush(file) == 0;
#ifndef _WIN32
  ok = ok && fsync(fileno(file)) == 0;
#endif
  ok = (std::fclose(file) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError(label + " write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError(label + " rename failed: " + tmp + " -> " + path);
  }
  // The rename entry lives in the directory, not the file: without this
  // sync a power failure can forget the publication (or resurrect the
  // previous file) even though the data blocks were fsync'd above.
  Status dir_sync = FsyncParentDir(path);
  if (!dir_sync.ok()) {
    return Status::IOError(label + " directory fsync failed after rename: " +
                           dir_sync.message());
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir_path) {
#ifndef _WIN32
  const int fd = ::open(dir_path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open directory for fsync: " + dir_path);
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return Status::IOError("directory fsync failed: " + dir_path);
#else
  (void)dir_path;
#endif
  return Status::OK();
}

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return FsyncDir(".");
  if (slash == 0) return FsyncDir("/");
  return FsyncDir(path.substr(0, slash));
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
