// Versioned binary snapshots of a CompleteHst — the one tree format.
//
// A snapshot is what the server publishes to clients (paper Fig. 1,
// step 1: clients parse it without the server's build-time randomness)
// and what a restarting server loads to come back up without paying
// HstTree::Build again (only the leaf-lookup tables are reconstructed,
// and the nearest-point mapper lazily on first use — orders of
// magnitude cheaper than a full build; bench/micro_hst_build.cc
// measures the ratio).
//
// On-disk layout: the shared frames, field codec and file grammar of
// common/frames.h, like a replay checkpoint, so tools/check_snapshot.py
// validates it with tools/tbf_frames.py and nothing but the Python
// standard library:
//
//   file    := header points+ leaves+ end
//   frame   := <len:u32> <crc:u32> <payload: len bytes>
//   payload := <kind:u8> <kind-specific fields>, little-endian
//
//   header (0): str  magic "TBF-SNAP"
//               u32  version     (3)
//               u32  depth, u32 arity (as i32)
//               f64  scale
//               u64  num_points
//   points (1): whole (f64 x, f64 y) rows         predefined points
//   leaves (2): whole 16-byte rows                LeafCodes (low u64,
//                                                 then high u64)
//   end    (3): u64  records before it
//
// Each table is split over as many records as it needs (at most 64 KiB
// of rows each, far below the frame cap); its rows concatenate in file
// order and must total num_points. The end record makes a file cut at a
// frame boundary fail too. Every published shape fits 128-bit codes, so
// the leaf code is the only leaf encoding. Older versions are refused
// with a message naming the version: v2 (whose header carried a flag
// choosing u64 codes or depth x u16 digit paths) and the v1 layout (one
// text header line over a single payload, which fails the frame walk).
//
// Parsing is defensive: truncation, bad magic or version, a shape beyond
// 128-bit codes, row counts that disagree with the header (checked before
// any table allocation), non-finite values and structural violations all
// yield precise InvalidArgument statuses (with record and row indexes),
// never a crash — the same contract the checkpoint parser honors.

#pragma once

#include <string>

#include "common/result.h"
#include "hst/complete_hst.h"

namespace tbf {

/// \brief Serializes `tree` into the snapshot record stream.
std::string SerializeHstSnapshot(const CompleteHst& tree);

/// \brief Parses a snapshot produced by SerializeHstSnapshot; validates
/// the frames (length, CRC), the record grammar, the schema and every
/// structural invariant before reconstructing the tree via
/// CompleteHst::FromParts.
Result<CompleteHst> ParseHstSnapshot(const std::string& bytes);

/// \brief Atomic write (WriteFileAtomic, common/atomic_file.h; fault
/// site "snapshot.write" — an injected failure leaves `path` untouched).
Status WriteHstSnapshotFile(const CompleteHst& tree, const std::string& path);

/// \brief Reads and parses a snapshot file (fault site "snapshot.load").
Result<CompleteHst> ReadHstSnapshotFile(const std::string& path);

}  // namespace tbf
