// Atomic file publication, shared by every whole-file artifact the
// serving stack produces (replay checkpoints in serve/checkpoint.cc, tree
// snapshots in hst/snapshot.cc). What goes *in* those files is
// common/frames.h's CRC frame stream; this module only gets the bytes
// onto disk and back.
//
// WriteFileAtomic publishes bytes with the tmp + fwrite + fflush + fsync
// + rename(2) discipline: a crash mid-write leaves either the previous
// file or a stray `<path>.tmp`, never a torn file.

#pragma once

#include <string>
#include <string_view>

#include "common/result.h"

namespace tbf {

/// \brief Atomic publication: writes to `<path>.tmp`, fsyncs, then
/// renames over `path` and fsyncs the parent directory (without the
/// directory fsync the rename itself can be lost on power failure, even
/// though the file data was synced). On failure the tmp file is removed
/// and `path` is untouched; `what` labels the IOError messages.
Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       std::string_view what);

/// \brief fsyncs a directory, making its entries (freshly created,
/// renamed or removed files) durable across power loss. POSIX only; a
/// no-op where directories cannot be fsync'd.
Status FsyncDir(const std::string& dir_path);

/// \brief FsyncDir on `path`'s parent directory ("." when the path has
/// no directory component, "/" for root-level paths).
Status FsyncParentDir(const std::string& path);

/// \brief Reads a whole file (binary-safe). IOError when it cannot be
/// opened, is not a regular file's bytes (a directory), or reads short or
/// with an error: never a silently shorter result.
Result<std::string> ReadFileToString(const std::string& path,
                                     std::string_view what);

}  // namespace tbf
