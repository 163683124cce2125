#include "hst/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/frames.h"
#include "common/fault.h"
#include "core/hst_mechanism.h"
#include "geo/grid.h"
#include "hst/pack_paths.h"

namespace tbf {
namespace {

CompleteHst BuildTree(uint64_t seed = 3, int side = 5) {
  EuclideanMetric metric;
  Rng rng(seed);
  auto grid = UniformGridPoints(BBox::Square(100), side);
  auto tree = CompleteHst::BuildFromPoints(*grid, metric, &rng);
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).MoveValueUnsafe();
}

// A shape too deep for one 64-bit word (70 binary digits): its codes use
// both halves of the 16-byte leaf rows.
CompleteHst BuildDeepTree() {
  const int depth = 70;
  std::vector<Point> points = {{0.0, 0.0}, {10.0, 10.0}, {20.0, 0.0}};
  std::vector<LeafPath> paths(
      points.size(), LeafPath(static_cast<size_t>(depth), char16_t{0}));
  paths[1][0] = char16_t{1};
  paths[2][1] = char16_t{1};
  auto tree = CompleteHst::FromParts(depth, 2, 2.5, std::move(points),
                                     PackPaths(depth, 2, paths));
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).MoveValueUnsafe();
}

// The smallest shape past 64 bits: depth 13 x arity 32 needs 65, so the
// last digit's low bit is bit 63 of the code's low word. `n` points on
// random distinct leaves.
CompleteHst Build65BitTree(int n, uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<Point> points;
  std::vector<LeafPath> paths;
  std::set<LeafPath> taken;
  while (static_cast<int>(paths.size()) < n) {
    LeafPath path = RandomLeafPath(13, 32, &rng);
    if (!taken.insert(path).second) continue;
    points.push_back({static_cast<double>(paths.size()), 1.0});
    paths.push_back(std::move(path));
  }
  auto tree = CompleteHst::FromParts(13, 32, 2.0, std::move(points),
                                     PackPaths(13, 32, paths));
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).MoveValueUnsafe();
}

// A deep tree (depth 70, arity 2: codes past one word) or a shallower
// one (depth 20) with `n` synthetic points: leaf i spells i in binary
// over its first 14 digits. Big enough that both tables span several
// records.
CompleteHst BuildWideTree(int depth, int n) {
  std::vector<Point> points;
  std::vector<LeafPath> paths;
  for (int i = 0; i < n; ++i) {
    points.push_back({static_cast<double>(i), static_cast<double>(i % 7)});
    LeafPath path(static_cast<size_t>(depth), char16_t{0});
    for (int d = 0; d < 14; ++d) {
      path[static_cast<size_t>(d)] = static_cast<char16_t>((i >> (13 - d)) & 1);
    }
    paths.push_back(std::move(path));
  }
  auto tree = CompleteHst::FromParts(depth, 2, 1.5, std::move(points),
                                     PackPaths(depth, 2, paths));
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).MoveValueUnsafe();
}

// --- record surgery helpers --------------------------------------------

enum RecordKind : char { kHeader = 0, kPoints = 1, kLeaves = 2, kEnd = 3 };

// The record payloads of a snapshot, in file order.
std::vector<std::string> RecordsOf(const std::string& bytes) {
  std::vector<std::string> records;
  const FrameWalk walk = WalkFrames(bytes, [&](std::string_view payload) {
    records.emplace_back(payload);
    return Status::OK();
  });
  EXPECT_FALSE(walk.bad) << walk.bad_detail;
  return records;
}

// The records of the small grid tree's snapshot.
std::vector<std::string> GridRecords() {
  return RecordsOf(SerializeHstSnapshot(BuildTree()));
}

// Frames `records` back into a file. Every frame is CRC-valid, so a
// parse failure is the schema's verdict, not the CRC's.
std::string Reframe(const std::vector<std::string>& records) {
  std::string out;
  for (const std::string& record : records) AppendFrame(&out, record);
  return out;
}

// The end record of a file with `records_before` records before it.
std::string EndRecord(uint64_t records_before) {
  std::string payload(1, kEnd);
  {
    FieldWriter io(&payload);
    io(records_before);
  }
  return payload;
}

void PatchU32(std::string* payload, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*payload)[off + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PatchU64(std::string* payload, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*payload)[off + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

// A LeafCode row: low u64, then high u64.
void PatchCode(std::string* payload, size_t off, LeafCode v) {
  PatchU64(payload, off, static_cast<uint64_t>(v));
  PatchU64(payload, off + 8, static_cast<uint64_t>(v >> 64));
}

void PatchF64(std::string* payload, size_t off, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PatchU64(payload, off, bits);
}

// Header record layout: kind@0, magic <len:u32>"TBF-SNAP"@1, version@13,
// depth@17, arity@21, scale@25, count@33. Table rows start at byte 1 of
// their record; a leaf row is 16 bytes.
constexpr size_t kOffMagic = 5;
constexpr size_t kOffVersion = 13;
constexpr size_t kOffDepth = 17;
constexpr size_t kOffArity = 21;
constexpr size_t kOffScale = 25;
constexpr size_t kOffCount = 33;
constexpr size_t kOffRows = 1;
constexpr size_t kLeafRowBytes = 16;

// Record indexes of a small tree: one record per table.
constexpr size_t kPointRecord = 1;
constexpr size_t kLeafRecord = 2;

void ExpectParseError(const std::string& bytes, const std::string& substring) {
  auto parsed = ParseHstSnapshot(bytes);
  ASSERT_FALSE(parsed.ok()) << "expected error containing '" << substring
                            << "'";
  EXPECT_NE(parsed.status().message().find(substring), std::string::npos)
      << parsed.status();
}

// --- round trips --------------------------------------------------------

TEST(HstSnapshotTest, RoundTripPreservesEverythingPacked) {
  CompleteHst original = BuildTree();
  ASSERT_NE(original.codec(), nullptr);
  auto parsed = ParseHstSnapshot(SerializeHstSnapshot(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->depth(), original.depth());
  EXPECT_EQ(parsed->arity(), original.arity());
  EXPECT_DOUBLE_EQ(parsed->scale(), original.scale());
  ASSERT_EQ(parsed->num_points(), original.num_points());
  ASSERT_NE(parsed->codec(), nullptr);
  for (int p = 0; p < original.num_points(); ++p) {
    EXPECT_EQ(parsed->points()[static_cast<size_t>(p)],
              original.points()[static_cast<size_t>(p)]);
    EXPECT_EQ(parsed->leaf_of_point(p), original.leaf_of_point(p));
    EXPECT_EQ(parsed->leaf_code_of_point(p), original.leaf_code_of_point(p));
  }
  // The parsed tree serves exactly as the built one: distances and
  // client-side mapping are draw-for-draw identical.
  for (int a = 0; a < original.num_points(); a += 3) {
    for (int b = 0; b < original.num_points(); b += 5) {
      EXPECT_DOUBLE_EQ(parsed->TreeDistance(parsed->leaf_code_of_point(a),
                                            parsed->leaf_code_of_point(b)),
                       original.TreeDistance(original.leaf_code_of_point(a),
                                             original.leaf_code_of_point(b)));
    }
  }
  Point query{33.3, 61.2};
  EXPECT_EQ(parsed->MapToNearestLeafCode(query),
            original.MapToNearestLeafCode(query));
}

TEST(HstSnapshotTest, RoundTripPreservesDeepDigitPathTree) {
  CompleteHst original = BuildDeepTree();
  const std::string bytes = SerializeHstSnapshot(original);
  auto parsed = ParseHstSnapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->depth(), original.depth());
  EXPECT_EQ(parsed->arity(), original.arity());
  EXPECT_DOUBLE_EQ(parsed->scale(), original.scale());
  ASSERT_EQ(parsed->num_points(), original.num_points());
  for (int p = 0; p < original.num_points(); ++p) {
    EXPECT_EQ(parsed->leaf_of_point(p), original.leaf_of_point(p));
    EXPECT_TRUE(
        parsed->leaf_code_of_point(p) == original.leaf_code_of_point(p));
  }
}

TEST(HstSnapshotTest, RoundTripPreserves65BitShape) {
  CompleteHst original = Build65BitTree(500);
  ASSERT_EQ(original.codec()->low_bits(), 63);
  const std::string bytes = SerializeHstSnapshot(original);
  auto parsed = ParseHstSnapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_points(), original.num_points());
  bool low_word_used = false;
  for (int p = 0; p < original.num_points(); ++p) {
    EXPECT_EQ(parsed->leaf_of_point(p), original.leaf_of_point(p));
    EXPECT_TRUE(
        parsed->leaf_code_of_point(p) == original.leaf_code_of_point(p));
    low_word_used |= static_cast<uint64_t>(original.leaf_code_of_point(p)) != 0;
  }
  EXPECT_TRUE(low_word_used);  // the 65th bit is really exercised
  EXPECT_EQ(SerializeHstSnapshot(*parsed), bytes);
}

TEST(HstSnapshotTest, Rejects65BitShapeCorruption) {
  const CompleteHst tree = Build65BitTree(40);
  const std::vector<std::string> base =
      RecordsOf(SerializeHstSnapshot(tree));
  ASSERT_EQ(base.size(), 4u);

  // Bit 62 sits just below the last digit: outside the shape.
  std::vector<std::string> records = base;
  PatchCode(&records[kLeafRecord], kOffRows,
            tree.leaf_code_of_point(0) | (LeafCode{1} << 62));
  ExpectParseError(Reframe(records), "row 0: code has bits outside");

  // Leaf 1 rewritten to leaf 0's code: two points on one leaf.
  records = base;
  PatchCode(&records[kLeafRecord], kOffRows + kLeafRowBytes,
            tree.leaf_code_of_point(0));
  ExpectParseError(Reframe(records), "duplicate");

  // A row cut after its low word.
  records = base;
  records[kLeafRecord].resize(records[kLeafRecord].size() - 8);
  ExpectParseError(Reframe(records),
                   "leaves record: 8 trailing bytes after 39 whole 16-byte "
                   "rows");

  // A header shape past 128 bits is refused: arity 32 at depth 26 needs
  // 130.
  records = base;
  PatchU32(&records[0], kOffDepth, 26);
  ExpectParseError(Reframe(records),
                   "depth 26 x arity 32 does not fit 128-bit leaf codes");
}

TEST(HstSnapshotTest, RoundTripTablesSpanningSeveralRecords) {
  for (const int depth : {70, 20}) {  // codes past one word, then within
    SCOPED_TRACE("depth " + std::to_string(depth));
    CompleteHst original = BuildWideTree(depth, 10000);
    const std::string bytes = SerializeHstSnapshot(original);
    int point_records = 0;
    int leaf_records = 0;
    for (const std::string& record : RecordsOf(bytes)) {
      EXPECT_LE(record.size(), kMaxFramePayload);
      point_records += record[0] == kPoints;
      leaf_records += record[0] == kLeaves;
    }
    EXPECT_GE(point_records, 2);
    EXPECT_GE(leaf_records, 2);
    auto parsed = ParseHstSnapshot(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_EQ(parsed->num_points(), original.num_points());
    for (int p = 0; p < original.num_points(); ++p) {
      ASSERT_EQ(parsed->points()[static_cast<size_t>(p)],
                original.points()[static_cast<size_t>(p)]);
      ASSERT_EQ(parsed->leaf_of_point(p), original.leaf_of_point(p));
    }
    EXPECT_EQ(SerializeHstSnapshot(*parsed), bytes);
  }
}

TEST(HstSnapshotTest, SerializationIsDeterministic) {
  CompleteHst tree = BuildTree(11);
  EXPECT_EQ(SerializeHstSnapshot(tree), SerializeHstSnapshot(tree));
}

TEST(HstSnapshotTest, RoundTripPreservesPackedCodeDomain) {
  // The serve path runs entirely on packed LeafCodes, so publication must
  // preserve the packed domain bit for bit: a client that parses the
  // published tree has to compute the SAME codes the server computed, or
  // every code-keyed exchange (reports, availability lookups, shard
  // routing) silently desynchronizes. Checks codec shape, every
  // precomputed leaf_code_of_point, the code-keyed point_of_leaf inverse,
  // and the end-to-end MapToNearestLeafCode client mapping.
  CompleteHst original = BuildTree(19, 6);
  auto parsed = ParseHstSnapshot(SerializeHstSnapshot(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  const LeafCodec* original_codec = original.codec();
  const LeafCodec* parsed_codec = parsed->codec();
  ASSERT_NE(original_codec, nullptr);
  ASSERT_NE(parsed_codec, nullptr);
  EXPECT_EQ(parsed_codec->depth(), original_codec->depth());
  EXPECT_EQ(parsed_codec->arity(), original_codec->arity());
  EXPECT_EQ(parsed_codec->bits_per_digit(), original_codec->bits_per_digit());

  for (int p = 0; p < original.num_points(); ++p) {
    const LeafCode code = original.leaf_code_of_point(p);
    EXPECT_EQ(parsed->leaf_code_of_point(p), code) << "point " << p;
    // Code-keyed inverse lookup agrees across the round trip...
    ASSERT_TRUE(parsed->point_of_leaf(code).has_value()) << "point " << p;
    EXPECT_EQ(*parsed->point_of_leaf(code), p);
    // Pack/Unpack through the parsed codec reproduces the published path.
    EXPECT_EQ(parsed_codec->Pack(original.leaf_of_point(p)), code);
    EXPECT_EQ(parsed_codec->Unpack(code), original.leaf_of_point(p));
  }

  // Client-side mapping: arbitrary query locations map to the same packed
  // code on both trees.
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    const Point query{rng.Uniform(-10, 110), rng.Uniform(-10, 110)};
    EXPECT_EQ(parsed->MapToNearestLeafCode(query),
              original.MapToNearestLeafCode(query));
  }
}

// --- frame corruption ---------------------------------------------------

TEST(HstSnapshotTest, RejectsBadMagic) {
  // A CRC-valid header naming another artifact.
  std::vector<std::string> records = GridRecords();
  records[0].replace(kOffMagic, 8, "TBF-NOPE");
  ExpectParseError(Reframe(records), "bad magic 'TBF-NOPE'");
}

TEST(HstSnapshotTest, RejectsFlippedPayloadByte) {
  std::string bytes = SerializeHstSnapshot(BuildTree());
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
  ExpectParseError(bytes, "CRC mismatch");
}

TEST(HstSnapshotTest, RejectsTruncatedFile) {
  std::string bytes = SerializeHstSnapshot(BuildTree());
  bytes.resize(bytes.size() / 2);
  ExpectParseError(bytes, "past end of file (torn write)");
}

TEST(HstSnapshotTest, RejectsFileCutAtRecordBoundary) {
  // Every proper prefix that ends on a frame boundary is a well-formed
  // frame stream; the missing end record is what refuses it.
  const std::string bytes = SerializeHstSnapshot(BuildWideTree(70, 10000));
  const std::vector<std::string> records = RecordsOf(bytes);
  ASSERT_GT(records.size(), 4u);
  for (size_t keep = 1; keep < records.size(); ++keep) {
    ExpectParseError(
        Reframe({records.begin(), records.begin() + static_cast<long>(keep)}),
        "no end record after " + std::to_string(keep) + " records");
  }
}

TEST(HstSnapshotTest, RejectsEmptyAndGarbageInput) {
  ExpectParseError("", "empty file");
  ExpectParseError("abc", "short frame header (3 trailing bytes)");
  ExpectParseError("complete garbage, not a snapshot", "byte cap");
  std::string frames;
  AppendFrame(&frames, "");
  ExpectParseError(frames, "empty record");
  frames.clear();
  AppendFrame(&frames, "\x07junk");
  ExpectParseError(frames, "unknown record kind 7");
}

TEST(HstSnapshotTest, RejectsRecordGrammarViolations) {
  const std::vector<std::string> base = GridRecords();
  ASSERT_EQ(base.size(), 4u);  // header, points, leaves, end

  std::vector<std::string> records(base.begin() + 1, base.end());
  ExpectParseError(Reframe(records),
                   "first record must be the snapshot header");

  records = base;
  records.insert(records.begin() + 1, base[0]);
  ExpectParseError(Reframe(records), "header record: follows a header record");

  records = base;
  std::swap(records[kPointRecord], records[kLeafRecord]);
  ExpectParseError(Reframe(records), "points record: follows a leaves record");

  records = base;
  records.erase(records.begin() + kPointRecord);
  ExpectParseError(Reframe(records),
                   "counts 3 records before it, the file has 2");

  records = base;
  records.push_back(EndRecord(records.size()));
  ExpectParseError(Reframe(records), "end record: follows the end record");
}

// --- schema corruption (CRC-valid frames, hostile records) ---------------

TEST(HstSnapshotTest, RejectsUnsupportedVersion) {
  // v2 (a flag word choosing u64 codes or u16 digit paths) is refused by
  // name, like any other version.
  for (const uint32_t version : {2u, 4u}) {
    std::vector<std::string> records = GridRecords();
    PatchU32(&records[0], kOffVersion, version);
    ExpectParseError(Reframe(records), "unsupported version " +
                                           std::to_string(version) +
                                           " (this build reads v3)");
  }
}

TEST(HstSnapshotTest, RejectsShapeBeyondCodeWidth) {
  // Every snapshot names a shape with a codec; 129 binary digits have none.
  std::vector<std::string> records = GridRecords();
  PatchU32(&records[0], kOffDepth, 129);
  PatchU32(&records[0], kOffArity, 2);
  ExpectParseError(Reframe(records),
                   "depth 129 x arity 2 does not fit 128-bit leaf codes");
}

TEST(HstSnapshotTest, RejectsBadGeometryHeader) {
  const std::vector<std::string> base = GridRecords();

  std::vector<std::string> records = base;
  PatchU32(&records[0], kOffDepth, 0);
  ExpectParseError(Reframe(records), "depth 0 must be >= 1");

  records = base;
  PatchU32(&records[0], kOffArity, 1);
  ExpectParseError(Reframe(records), "arity 1 out of range");

  records = base;
  PatchF64(&records[0], kOffScale, -4.0);
  ExpectParseError(Reframe(records), "scale must be positive");
}

TEST(HstSnapshotTest, RejectsEmptyPointSet) {
  std::vector<std::string> records = GridRecords();
  PatchU64(&records[0], kOffCount, 0);
  ExpectParseError(Reframe(records), "empty point set");
}

TEST(HstSnapshotTest, HugePointCountFailsWithoutAllocating) {
  // A corrupt count must be caught by the row-count cross-check before
  // any table allocation — not by an out-of-memory crash.
  std::vector<std::string> records = GridRecords();
  PatchU64(&records[0], kOffCount, uint64_t{1} << 60);
  ExpectParseError(Reframe(records),
                   "1152921504606846976 points declared, the point table "
                   "holds 25 rows");
}

TEST(HstSnapshotTest, RejectsTruncatedPayload) {
  const std::vector<std::string> base = GridRecords();

  std::vector<std::string> records = base;
  records[kLeafRecord].resize(records[kLeafRecord].size() -
                              kLeafRowBytes);  // one row
  ExpectParseError(Reframe(records),
                   "25 points declared, the leaf table holds 24 rows");

  records = base;
  records.erase(records.begin() + kLeafRecord);
  records.back() = EndRecord(records.size() - 1);
  ExpectParseError(Reframe(records), "the leaf table holds 0 rows");

  records = base;
  records[0].resize(kOffCount + 2);  // cut mid-header
  ExpectParseError(Reframe(records), "header record: short read");
}

TEST(HstSnapshotTest, RejectsNonFinitePoint) {
  std::vector<std::string> records = GridRecords();
  PatchF64(&records[kPointRecord], kOffRows,
           std::numeric_limits<double>::quiet_NaN());
  ExpectParseError(Reframe(records), "point 0: non-finite coordinate");
}

TEST(HstSnapshotTest, RejectsCodeBitsOutsideShape) {
  // depth 3 x arity 4 = 6 bits of code at the top of the high word; the
  // low word's lowest byte is guaranteed outside the shape, so poisoning
  // it must be caught by the stray-bit check.
  std::vector<Point> points = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  std::vector<LeafPath> paths = {
      {char16_t{0}, char16_t{0}, char16_t{0}},
      {char16_t{1}, char16_t{0}, char16_t{0}},
      {char16_t{2}, char16_t{1}, char16_t{0}}};
  auto tree = CompleteHst::FromParts(3, 4, 2.0, std::move(points),
                                     PackPaths(3, 4, paths));
  ASSERT_TRUE(tree.ok()) << tree.status();
  ASSERT_NE(tree->codec(), nullptr);
  std::vector<std::string> records = RecordsOf(SerializeHstSnapshot(*tree));
  records[kLeafRecord][kOffRows] = static_cast<char>(0xFF);  // low byte
  ExpectParseError(Reframe(records), "row 0: code has bits outside");
}

TEST(HstSnapshotTest, RejectsDigitOutOfArityRange) {
  // Arity 3 takes 2-bit digit fields, so the field value 3 is no digit.
  std::vector<Point> points = {{0.0, 0.0}, {10.0, 0.0}};
  std::vector<LeafPath> paths = {{char16_t{0}, char16_t{0}},
                                 {char16_t{1}, char16_t{2}}};
  auto tree = CompleteHst::FromParts(2, 3, 2.0, std::move(points),
                                     PackPaths(2, 3, paths));
  ASSERT_TRUE(tree.ok()) << tree.status();
  std::vector<std::string> records = RecordsOf(SerializeHstSnapshot(*tree));
  // The high byte of leaf 0's code holds digit 0 in its top two bits.
  records[kLeafRecord][kOffRows + 15] = static_cast<char>(0xC0);
  ExpectParseError(Reframe(records),
                   "row 0: digit 3 at position 0 exceeds the published arity");
}

TEST(HstSnapshotTest, RejectsDuplicateLeafViaBackstop) {
  CompleteHst tree = BuildTree();
  std::vector<std::string> records = RecordsOf(SerializeHstSnapshot(tree));
  // Make leaf 1's code identical to leaf 0's: structural validation
  // passes, FromParts rejects the duplicate with the "snapshot: " prefix.
  PatchCode(&records[kLeafRecord], kOffRows + kLeafRowBytes,
            tree.leaf_code_of_point(0));
  auto parsed = ParseHstSnapshot(Reframe(records));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("snapshot: "), std::string::npos);
  EXPECT_NE(parsed.status().message().find("duplicate"), std::string::npos);
}

TEST(HstSnapshotTest, RejectsTrailingBytes) {
  std::vector<std::string> records = GridRecords();
  records[kLeafRecord].append("\0\0\0\0", 4);
  ExpectParseError(
      Reframe(records),
      "leaves record: 4 trailing bytes after 25 whole 16-byte rows");

  records = GridRecords();
  records[0].append("\0", 1);
  ExpectParseError(Reframe(records),
                   "header record: trailing bytes after a complete record");
}

// --- mutation sweep: corrupt bytes never crash the parser ---------------

TEST(HstSnapshotTest, RandomSingleByteMutationsAlwaysRejected) {
  const std::string bytes = SerializeHstSnapshot(BuildTree());
  std::mt19937 prng(20260808);
  for (int iter = 0; iter < 400; ++iter) {
    std::string mutated = bytes;
    const size_t pos = prng() % mutated.size();
    char flip = static_cast<char>(prng() % 256);
    while (flip == mutated[pos]) flip = static_cast<char>(prng() % 256);
    mutated[pos] = flip;
    // Every byte is covered: a changed length breaks the frame walk or
    // the CRC, every other byte is CRC-checked.
    EXPECT_FALSE(ParseHstSnapshot(mutated).ok()) << "byte " << pos;
  }
  for (int iter = 0; iter < 100; ++iter) {
    std::string mutated = bytes.substr(0, prng() % bytes.size());
    EXPECT_FALSE(ParseHstSnapshot(mutated).ok())
        << "truncation to " << mutated.size();
  }
}

// --- files and fault sites ----------------------------------------------

TEST(HstSnapshotTest, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/tbf_snapshot_test.snap";
  std::remove(path.c_str());

  CompleteHst tree = BuildTree(5);
  ASSERT_TRUE(WriteHstSnapshotFile(tree, path).ok());
  auto loaded = ReadHstSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializeHstSnapshot(*loaded), SerializeHstSnapshot(tree));

  auto missing = ReadHstSnapshotFile(path + ".does-not-exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);

  std::remove(path.c_str());
}

// --- reconstruction from parts ----------------------------------------

TEST(FromPartsTest, ValidatesInvariants) {
  std::vector<Point> pts = {{0, 0}, {1, 1}};
  const LeafCodec codec(2, 2);
  const LeafCode a = codec.Pack({char16_t{0}, char16_t{0}});
  const LeafCode b = codec.Pack({char16_t{1}, char16_t{0}});
  // Happy path.
  EXPECT_TRUE(CompleteHst::FromParts(2, 2, 1.0, pts, {a, b}).ok());
  // Bad ranges / structure.
  EXPECT_FALSE(CompleteHst::FromParts(0, 2, 1.0, pts, {a, b}).ok());
  EXPECT_FALSE(CompleteHst::FromParts(2, 1, 1.0, pts, {a, b}).ok());
  EXPECT_FALSE(CompleteHst::FromParts(2, 2, 0.0, pts, {a, b}).ok());
  EXPECT_FALSE(CompleteHst::FromParts(2, 2, 1.0, {}, {}).ok());
  EXPECT_FALSE(CompleteHst::FromParts(2, 2, 1.0, pts, {a}).ok());
  // Duplicate codes.
  EXPECT_FALSE(CompleteHst::FromParts(2, 2, 1.0, pts, {a, a}).ok());
  // A third digit: bits below the last digit of a depth-2 code.
  const LeafCode deeper = LeafCodec(3, 2).Pack(LeafPath(3, 1));
  EXPECT_FALSE(CompleteHst::FromParts(2, 2, 1.0, pts, {a, deeper}).ok());
  // Digit out of arity range (arity 3 takes 2-bit fields).
  const LeafCode big = LeafCodec(2, 4).Pack({char16_t{3}, char16_t{0}});
  EXPECT_FALSE(CompleteHst::FromParts(2, 3, 1.0, pts, {a, big}).ok());
}

TEST(FromPartsTest, ReconstructedTreeObfuscatesAndMatches) {
  // A parsed tree supports the full client path: mechanism + obfuscation.
  CompleteHst original = BuildTree(13);
  auto parsed = ParseHstSnapshot(SerializeHstSnapshot(original));
  ASSERT_TRUE(parsed.ok());
  auto mech = HstMechanism::Build(*parsed, 0.5);
  ASSERT_TRUE(mech.ok());
  Rng rng(1);
  LeafPath z = mech->Obfuscate(parsed->leaf_of_point(0), &rng);
  EXPECT_EQ(z.size(), static_cast<size_t>(parsed->depth()));
}

#ifndef TBF_FAULTS_DISABLED

TEST(HstSnapshotTest, InjectedWriteFailureLeavesPreviousSnapshotIntact) {
  const std::string path = ::testing::TempDir() + "/tbf_snapshot_fault.snap";
  std::remove(path.c_str());

  CompleteHst first = BuildTree(3);
  CompleteHst second = BuildTree(9);
  ASSERT_TRUE(WriteHstSnapshotFile(first, path).ok());

  {
    fault::FaultSpec spec;
    spec.site = "snapshot.write";
    spec.kind = fault::FaultKind::kFail;
    spec.code = StatusCode::kIOError;
    spec.message = "injected disk failure";
    fault::FaultPlan plan;
    plan.faults.push_back(spec);
    fault::ScopedFaultPlan armed(plan);

    Status failed = WriteHstSnapshotFile(second, path);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIOError);
  }

  // The aborted write must not have touched the published file.
  auto loaded = ReadHstSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializeHstSnapshot(*loaded), SerializeHstSnapshot(first));

  // With the fault cleared the retry succeeds and replaces the snapshot.
  ASSERT_TRUE(WriteHstSnapshotFile(second, path).ok());
  auto reloaded = ReadHstSnapshotFile(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(SerializeHstSnapshot(*reloaded), SerializeHstSnapshot(second));

  std::remove(path.c_str());
}

TEST(HstSnapshotTest, InjectedLoadFailureSurfacesWithoutReadingFile) {
  const std::string path = ::testing::TempDir() + "/tbf_snapshot_load.snap";
  CompleteHst tree = BuildTree(4);
  ASSERT_TRUE(WriteHstSnapshotFile(tree, path).ok());

  {
    fault::FaultSpec spec;
    spec.site = "snapshot.load";
    spec.kind = fault::FaultKind::kFail;
    spec.code = StatusCode::kIOError;
    fault::FaultPlan plan;
    plan.faults.push_back(spec);
    fault::ScopedFaultPlan armed(plan);
    EXPECT_EQ(ReadHstSnapshotFile(path).status().code(),
              StatusCode::kIOError);
  }
  EXPECT_TRUE(ReadHstSnapshotFile(path).ok());
  std::remove(path.c_str());
}

#endif  // TBF_FAULTS_DISABLED

}  // namespace
}  // namespace tbf
