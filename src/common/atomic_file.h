// Atomic file publication + CRC-32, shared by every on-disk artifact the
// serving stack produces (replay checkpoints in serve/checkpoint.cc, tree
// snapshots in hst/snapshot.cc), and the one-line-header framing the
// snapshots use (checkpoints use the journal's record frames instead —
// serve/wal.h).
//
// Two concerns live here because they always travel together:
//
//  1. WriteFileAtomic publishes bytes with the tmp + fwrite + fflush +
//     fsync + rename(2) discipline: a crash mid-write leaves either the
//     previous file or a stray `<path>.tmp`, never a torn file.
//  2. FrameCrcPayload/UnframeCrcPayload wrap a payload (text or binary —
//     the length is declared, so embedded newlines and NULs are fine) in
//     a one-line header `<magic> <crc32-hex8> <payload-bytes>\n` whose
//     CRC-32 (IEEE reflected — bit-compatible with zlib and Python's
//     binascii.crc32) lets stdlib-only tools validate the artifact
//     (tools/check_snapshot.py).
//
// Unframing returns precise InvalidArgument statuses (bad magic, bad CRC
// field, length mismatch, CRC mismatch) and never crashes on corrupt
// input; `what` labels the messages ("checkpoint", "snapshot", ...).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace tbf {

/// \brief CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) —
/// bit-compatible with zlib's crc32() and Python's binascii.crc32. Pass a
/// previous return value as `crc` to checksum incrementally.
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

/// \brief `<magic> <crc32-hex8> <payload-bytes>\n` + payload. The magic
/// must be a single whitespace-free token.
std::string FrameCrcPayload(std::string_view magic, std::string_view payload);

/// \brief Validates the header (magic token, 8-hex-digit CRC, declared
/// length) and the payload CRC; returns the payload bytes. Corruption
/// anywhere yields a precise InvalidArgument prefixed with `what`.
Result<std::string> UnframeCrcPayload(std::string_view magic,
                                      const std::string& text,
                                      std::string_view what);

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

/// \brief Slurps a file (binary-safe); IOError when it cannot be opened.
Result<std::string> ReadFileToString(const std::string& path,
                                     std::string_view what);

}  // namespace tbf
