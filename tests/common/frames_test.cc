// Crc32 against an independent bit-at-a-time CRC-32. On a CPU with
// PCLMULQDQ, buffers of 64 bytes and more take the carry-less-multiply
// fold (plus the table for their tail) and shorter ones the table, so the
// sweep below checks both paths and every seam between them: each length
// from 0 to 1024 at each start offset 0..15, large buffers, and a CRC
// continued across pieces cut at every alignment. Then the table records
// of the shared file grammar: how ArtifactWriter::AddTable splits rows
// into records, and FieldReader::Rows reading them back.

#include "common/frames.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tbf {
namespace {

// The CRC-32 definition itself: one bit of the reflected polynomial per
// step, no tables.
uint32_t BitwiseCrc32(std::string_view data, uint32_t crc = 0) {
  crc = ~crc;
  for (const char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

// `n` pseudo-random bytes (xorshift64), the same on every run.
std::string RandomBytes(size_t n, uint64_t seed) {
  std::string bytes(n, '\0');
  uint64_t x = seed;
  for (char& c : bytes) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x >> 56);
  }
  return bytes;
}

bool FoldRunsHere() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") != 0;
#else
  return false;
#endif
}

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check vector (zlib, binascii.crc32, PNG, ...).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Incremental == one-shot.
  const uint32_t partial = Crc32("12345");
  EXPECT_EQ(Crc32("6789", partial), 0xCBF43926u);
}

TEST(Crc32Test, EveryLengthAndAlignmentMatchesTheBitwiseDefinition) {
  RecordProperty("pclmul_fold", FoldRunsHere() ? "yes" : "no");
  const std::string bytes = RandomBytes(1024 + 16, 1);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const std::string_view data(bytes.data() + offset, len);
      ASSERT_EQ(Crc32(data), BitwiseCrc32(data))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32Test, LargeBuffersMatchTheBitwiseDefinition) {
  for (const size_t len : {size_t{1} << 16, (size_t{4} << 20) + 7}) {
    const std::string bytes = RandomBytes(len, len);
    EXPECT_EQ(Crc32(bytes), BitwiseCrc32(bytes)) << "length " << len;
  }
  // All-zero and all-one blocks: the fold's lanes carry no input bits.
  for (const char fill : {'\0', '\xFF'}) {
    const std::string bytes(4096 + 5, fill);
    EXPECT_EQ(Crc32(bytes), BitwiseCrc32(bytes)) << int{fill};
  }
}

TEST(Crc32Test, ContinuationAcrossPiecesIsOneShot) {
  const std::string bytes = RandomBytes(700, 7);
  const uint32_t whole = BitwiseCrc32(bytes);
  // Two pieces cut at every point, then a start value other than 0.
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string_view data(bytes);
    ASSERT_EQ(Crc32(data.substr(cut), Crc32(data.substr(0, cut))), whole)
        << "cut " << cut;
  }
  // Many pieces of varied lengths, short and long, chained.
  uint32_t crc = 0;
  size_t pos = 0;
  for (size_t piece = 1; pos < bytes.size(); piece = piece * 3 % 101 + 1) {
    const std::string_view data =
        std::string_view(bytes).substr(pos, piece);
    crc = Crc32(data, crc);
    pos += data.size();
  }
  EXPECT_EQ(crc, whole);
  EXPECT_EQ(Crc32(std::string_view(bytes).substr(100), 0x12345678u),
            BitwiseCrc32(std::string_view(bytes).substr(100), 0x12345678u));
}

// A file of one table: header, `kRow` table records, end.
enum TestRec : uint8_t { kTestHeader, kRow, kTestEnd };
constexpr std::array<const char*, 3> kTestRecNames = {"header", "row", "end"};
constexpr ArtifactFormat kTestFormat = {"test file", "TBF-TEST", 1,
                                        kTestRecNames};

std::string WriteTable(const std::vector<std::string>& rows) {
  std::string out;
  ArtifactWriter file(kTestFormat, &out);
  file.AddTable(kRow, rows.size(), [&](FieldWriter& io, size_t i) {
    io(rows[i]);
  });
  file.Finish();
  return out;
}

// The payload sizes of `bytes`' table records, in order.
std::vector<size_t> TableRecordSizes(const std::string& bytes) {
  std::vector<size_t> sizes;
  const FrameWalk walk = WalkFrames(bytes, [&](std::string_view payload) {
    if (static_cast<uint8_t>(payload[0]) == kRow) {
      sizes.push_back(payload.size());
    }
    return Status::OK();
  });
  EXPECT_FALSE(walk.bad) << walk.bad_detail;
  return sizes;
}

Result<std::vector<std::string>> ReadTable(const std::string& bytes) {
  std::vector<std::string> rows;
  ArtifactReader file(kTestFormat);
  TBF_RETURN_NOT_OK(file.Read(bytes, [&](uint8_t kind, FieldReader& io) {
    if (kind != kRow) return Status::OK();
    return io.Rows("test", rows.size(),
                   [&] { return io(rows.emplace_back()); });
  }));
  return rows;
}

TEST(TableRecordTest, RecordsHoldWholeRowsUpToTheCap) {
  // Rows of 4 + 0..299 bytes; a 70,000-byte row, larger than the cap,
  // gets a record of its own wherever it falls.
  std::vector<std::string> rows;
  for (size_t i = 0; i < 2000; ++i) {
    rows.push_back(RandomBytes(i * 37 % 300, i));
  }
  rows.insert(rows.begin() + 700, std::string(70000, 'x'));
  const std::string bytes = WriteTable(rows);

  // Each record is maximal: its rows fit the cap and the next row would
  // not (or it holds just the big row).
  const std::vector<size_t> sizes = TableRecordSizes(bytes);
  ASSERT_GE(sizes.size(), 4u);
  size_t row = 0;
  for (const size_t size : sizes) {
    size_t row_bytes = 0;
    const size_t first = row;
    while (row < rows.size() && row_bytes + 1 + 4 + rows[row].size() <= size) {
      row_bytes += 4 + rows[row++].size();
    }
    ASSERT_EQ(1 + row_bytes, size) << "record starting at row " << first;
    ASSERT_GT(row, first) << "a record with no rows";
    if (row_bytes > kTableRecordBytes) {
      EXPECT_EQ(row, first + 1) << "only a lone row may pass the cap";
    } else if (row < rows.size()) {
      EXPECT_GT(row_bytes + 4 + rows[row].size(), kTableRecordBytes)
          << "record starting at row " << first << " could hold row " << row;
    }
  }
  EXPECT_EQ(row, rows.size());

  Result<std::vector<std::string>> read = ReadTable(bytes);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, rows);
}

TEST(TableRecordTest, FixedRowsSplitAtTheCapAndNoRowsWriteNoRecord) {
  // 16-byte rows (a snapshot's points and leaves): 4,096 to a record.
  std::vector<std::string> rows(10000, std::string(12, 'p'));
  EXPECT_EQ(TableRecordSizes(WriteTable(rows)),
            (std::vector<size_t>{1 + 65536, 1 + 65536, 1 + 16 * 1808}));
  EXPECT_TRUE(TableRecordSizes(WriteTable({})).empty());
  Result<std::vector<std::string>> read = ReadTable(WriteTable({}));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->empty());
}

}  // namespace
}  // namespace tbf
