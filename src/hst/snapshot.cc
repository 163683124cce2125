#include "hst/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/frames.h"
#include "hst/leaf_code.h"

namespace tbf {

namespace {

constexpr std::string_view kMagic = "TBF-SNAP";
constexpr uint32_t kSnapshotVersion = 3;

// Record kinds, in the only order a file may hold them.
enum Rec : uint8_t { kHeader, kPoints, kLeaves, kEnd, kNumRecs };
constexpr std::array<const char*, kNumRecs> kRecNames = {"header", "points",
                                                         "leaves", "end"};

// Point and leaf tables are table records (common/frames.h): a 100k-point
// table (1.6 MB) splits into records of 4,096 rows.
constexpr size_t kPointBytes = 16;  // f64 x, f64 y
constexpr size_t kLeafBytes = 16;   // LeafCode: low u64, high u64

// Copies little-endian words of `W` bytes into `out`: one memcpy on
// little-endian hosts (every CI target), plus a per-word byte reversal on
// big-endian ones. The bulk table loads go through here.
template <size_t W>
void LoadWords(const void* in, size_t bytes, void* out) {
  std::memcpy(out, in, bytes);
  if constexpr (std::endian::native != std::endian::little) {
    auto* p = static_cast<unsigned char*>(out);
    for (size_t i = 0; i < bytes; i += W) std::reverse(p + i, p + i + W);
  }
}

constexpr ArtifactFormat kFormat = {"snapshot", kMagic, kSnapshotVersion,
                                     kRecNames};

// Reads each record's own fields (the shared grammar in common/frames.h
// reads the header's magic and version and checks the end count) and
// enforces the rest of the snapshot grammar: the order header, point
// records, leaf records, end, and the header's schema. Table records are
// kept as views into the file and their rows only counted, so a corrupt
// point count is caught against the actual table sizes (Finish) before
// anything is allocated for the rows.
struct SnapshotDecoder {
  int depth = 0;
  int arity = 0;
  double scale = 0.0;
  uint64_t num_points = 0;
  std::array<std::vector<std::string_view>, kNumRecs> tables;
  std::array<uint64_t, kNumRecs> rows{};
  int last = -1;

  Status Visit(uint8_t kind, FieldReader& io) {
    if (last >= 0 && (kind < last || kind == kHeader)) {
      return io.Refuse(std::string("follows a ") + kRecNames[last] +
                       " record (the order is header, points, leaves, end)");
    }
    last = kind;
    if (kind == kHeader) return DecodeHeader(io);
    if (kind == kEnd) return Status::OK();
    const std::string_view body = io.Rest();
    const size_t row = kind == kPoints ? kPointBytes : kLeafBytes;
    if (body.size() % row != 0) {
      return io.Refuse(std::to_string(body.size() % row) +
                       " trailing bytes after " +
                       std::to_string(body.size() / row) + " whole " +
                       std::to_string(row) + "-byte rows");
    }
    tables[kind].push_back(body);
    rows[kind] += body.size() / row;
    return Status::OK();
  }

  Status DecodeHeader(FieldReader& io) {
    TBF_RETURN_NOT_OK(io(depth, arity, scale, num_points));
    if (depth < 1) {
      return io.Refuse("depth " + std::to_string(depth) + " must be >= 1");
    }
    if (arity < 2 || arity > 0xFFFF) {
      return io.Refuse("arity " + std::to_string(arity) +
                       " out of range [2, 65535]");
    }
    if (!std::isfinite(scale) || scale <= 0.0) {
      return io.Refuse("scale must be positive and finite");
    }
    if (!LeafCodec::Fits(depth, arity)) {
      return io.Refuse("depth " + std::to_string(depth) + " x arity " +
                       std::to_string(arity) + " does not fit " +
                       std::to_string(kLeafCodeBits) + "-bit leaf codes");
    }
    if (num_points == 0) return io.Refuse("empty point set");
    return Status::OK();
  }

  Status Finish(uint64_t records) const {
    if (last != kEnd) {
      return Status::InvalidArgument(
          "snapshot: no end record after " + std::to_string(records) +
          " records — truncated or corrupt file");
    }
    for (const Rec table : {kPoints, kLeaves}) {
      if (rows[table] != num_points) {
        return Status::InvalidArgument(
            "snapshot: " + std::to_string(num_points) +
            " points declared, the " + (table == kPoints ? "point" : "leaf") +
            " table holds " + std::to_string(rows[table]) + " rows");
      }
    }
    return Status::OK();
  }
};

}  // namespace

std::string SerializeHstSnapshot(const CompleteHst& tree) {
  const size_t n = static_cast<size_t>(tree.num_points());
  const size_t table_bytes = n * (kPointBytes + kLeafBytes);
  std::string out;
  // Frame overhead is 9 bytes per >= 64 KiB table record, plus the
  // header and end records.
  out.reserve(256 + table_bytes + table_bytes / 1024);
  ArtifactWriter file(kFormat, &out, [&](FieldWriter& io) {
    io(tree.depth(), tree.arity(), tree.scale(), uint64_t{n});
  });
  file.AddTable(kPoints, n, [&](FieldWriter& io, size_t i) {
    io(tree.points()[i].x, tree.points()[i].y);
  });
  file.AddTable(kLeaves, n, [&](FieldWriter& io, size_t i) {
    io(tree.leaf_code_of_point(static_cast<int>(i)));
  });
  file.Finish();
  return out;
}

Result<CompleteHst> ParseHstSnapshot(const std::string& bytes) {
  SnapshotDecoder snap;
  ArtifactReader file(kFormat);
  TBF_RETURN_NOT_OK(file.Read(bytes, [&snap](uint8_t kind, FieldReader& io) {
    return snap.Visit(kind, io);
  }));
  TBF_RETURN_NOT_OK(snap.Finish(file.records()));
  const uint64_t num_points = snap.num_points;

  // Both tables are size-checked against the header; read them in bulk
  // straight from the record payloads (the load path is the hot path — a
  // per-field reader here costs more than everything else in the parse).
  std::vector<Point> points(num_points);
  static_assert(sizeof(Point) == kPointBytes &&
                    std::is_trivially_copyable_v<Point>,
                "Point must match the snapshot's (f64 x, f64 y) layout");
  size_t filled = 0;
  for (const std::string_view record : snap.tables[kPoints]) {
    LoadWords<8>(record.data(), record.size(), points.data() + filled);
    filled += record.size() / kPointBytes;
  }
  for (uint64_t i = 0; i < num_points; ++i) {
    if (!std::isfinite(points[i].x) || !std::isfinite(points[i].y)) {
      return Status::InvalidArgument("snapshot: point " + std::to_string(i) +
                                     ": non-finite coordinate");
    }
  }

  std::vector<LeafCode> leaves;
  leaves.reserve(num_points);
  for (const std::string_view record : snap.tables[kLeaves]) {
    for (size_t off = 0; off < record.size(); off += kLeafBytes) {
      uint64_t words[2];
      LoadWords<8>(record.data() + off, kLeafBytes, words);
      leaves.push_back((LeafCode{words[1]} << 64) | words[0]);
    }
  }
  // FromParts validates every code (LeafCodec::Validate) and rejects
  // duplicates, naming the row; the nearest-point mapper is lazy —
  // nothing until the first MapToNearest*.
  Result<CompleteHst> tree =
      CompleteHst::FromParts(snap.depth, snap.arity, snap.scale,
                             std::move(points), std::move(leaves));
  if (!tree.ok()) {
    return Status::InvalidArgument("snapshot: " + tree.status().message());
  }
  return tree;
}

Status WriteHstSnapshotFile(const CompleteHst& tree, const std::string& path) {
  // The site fires before any byte is produced: an injected failure
  // leaves `path` (and any previous snapshot there) untouched.
  TBF_RETURN_NOT_OK(TBF_FAULT_INJECT("snapshot.write"));
  return WriteFileAtomic(path, SerializeHstSnapshot(tree), "snapshot");
}

Result<CompleteHst> ReadHstSnapshotFile(const std::string& path) {
  TBF_RETURN_NOT_OK(TBF_FAULT_INJECT("snapshot.load"));
  TBF_ASSIGN_OR_RETURN(const std::string bytes,
                       ReadFileToString(path, "snapshot"));
  return ParseHstSnapshot(bytes);
}

}  // namespace tbf
