// Segmented write-ahead journal: record codec round-trips, precise
// corruption rejection, fsync policies, rotation + compaction, torn-tail
// repair, fault sites, and the seeded mutation + truncation fuzz sweep
// over everything framed with the journal's records — journal payloads,
// journal directories and replay checkpoints (2600 cases).

#include "serve/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "serve/checkpoint.h"

namespace tbf {
namespace {

namespace fs = std::filesystem;

WalIdentity TestIdentity() {
  WalIdentity id;
  id.trace_fingerprint = 0xC0FFEE11u;
  id.num_shards = 4;
  id.epoch_seconds = 60.0;
  id.server_seed = 7;
  id.obfuscation_seed = 11;
  return id;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/tbf_wal_" + name;
  fs::remove_all(dir);
  return dir;
}

WalRecord ArrivalRecord(uint64_t event_index, const std::string& id) {
  WalRecord rec;
  rec.kind = WalRecordKind::kWorkerArrival;
  rec.event_index = event_index;
  rec.id = id;
  rec.packed = true;
  rec.code = 0x123456789ABCDEFull;
  rec.has_epsilon = true;
  rec.declared_epsilon = 0.6;
  rec.outcome.status_code = 0;
  rec.outcome.epsilon_charged = 0.6;
  return rec;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------
// Record codec

TEST(WalRecordCodec, RoundTripsEveryKind) {
  std::vector<WalRecord> records;

  WalRecord header;
  header.kind = WalRecordKind::kSegmentHeader;
  header.segment_seq = 3;
  header.identity = TestIdentity();
  records.push_back(header);

  WalRecord epoch;
  epoch.kind = WalRecordKind::kEpochBegin;
  epoch.epoch = -2;
  epoch.begin_index = 17;
  epoch.arrivals_obfuscated = 99;
  epoch.next_task_slot = 5;
  records.push_back(epoch);

  records.push_back(ArrivalRecord(4, "w-1"));

  // A code using both words (a shape past 64 bits) round-trips whole.
  WalRecord wide_arrival;
  wide_arrival.kind = WalRecordKind::kWorkerArrival;
  wide_arrival.event_index = 6;
  wide_arrival.id = "w-2";
  wide_arrival.packed = true;
  wide_arrival.code =
      (LeafCode{0xFEDCBA9876543210ull} << 64) | 0x8000000000000000ull;
  wide_arrival.outcome.status_code =
      static_cast<int32_t>(StatusCode::kResourceExhausted);
  wide_arrival.outcome.message = "shed";
  records.push_back(wide_arrival);

  WalRecord task;
  task.kind = WalRecordKind::kTaskArrival;
  task.event_index = 8;
  task.id = "t-1";
  task.code = 42;  // `packed` left at its default
  task.has_epsilon = true;
  task.declared_epsilon = 0.25;
  task.task_slot = 3;
  task.outcome.has_worker = true;
  task.outcome.worker = "w-1";
  task.outcome.tree_distance = 12.5;
  task.outcome.epsilon_charged = 0.25;
  records.push_back(task);

  WalRecord forced_task;
  forced_task.kind = WalRecordKind::kTaskArrival;
  forced_task.event_index = 9;
  forced_task.id = "t-2";
  forced_task.packed = true;
  forced_task.code = 43;
  forced_task.task_slot = 4;
  forced_task.outcome.forced = true;
  forced_task.outcome.status_code =
      static_cast<int32_t>(StatusCode::kResourceExhausted);
  forced_task.outcome.message = "injected";
  forced_task.outcome.budget_denied = 2;
  records.push_back(forced_task);

  WalRecord departure;
  departure.kind = WalRecordKind::kWorkerDeparture;
  departure.event_index = 11;
  departure.id = "w-1";
  departure.missed = true;
  records.push_back(departure);

  WalRecord quarantine;
  quarantine.kind = WalRecordKind::kQuarantine;
  quarantine.event_index = 12;
  quarantine.id = "";
  quarantine.cause = "empty event id";
  records.push_back(quarantine);

  WalRecord stream_fault;
  stream_fault.kind = WalRecordKind::kStreamFault;
  stream_fault.event_index = 13;
  stream_fault.fault_kind = 2;
  records.push_back(stream_fault);

  WalRecord republish;
  republish.kind = WalRecordKind::kRepublish;
  republish.tree_epoch = 2;
  records.push_back(republish);

  uint64_t lsn = 0;
  for (WalRecord& rec : records) {
    rec.lsn = lsn++;
    Result<WalRecord> decoded = DecodeWalRecord(EncodeWalRecord(rec));
    ASSERT_TRUE(decoded.ok())
        << "kind " << static_cast<int>(rec.kind) << ": "
        << decoded.status().ToString();
    EXPECT_EQ(decoded->kind, rec.kind);
    EXPECT_EQ(decoded->lsn, rec.lsn);
    EXPECT_EQ(decoded->event_index, rec.event_index);
    EXPECT_EQ(decoded->id, rec.id);
    EXPECT_EQ(decoded->packed, rec.packed);
    EXPECT_TRUE(decoded->code == rec.code);
    EXPECT_EQ(decoded->has_epsilon, rec.has_epsilon);
    EXPECT_EQ(decoded->declared_epsilon,
              rec.has_epsilon ? rec.declared_epsilon : 0.0);
    EXPECT_EQ(decoded->missed, rec.missed);
    EXPECT_EQ(decoded->cause, rec.cause);
    EXPECT_EQ(decoded->fault_kind, rec.fault_kind);
    EXPECT_EQ(decoded->tree_epoch, rec.tree_epoch);
    EXPECT_EQ(decoded->segment_seq, rec.segment_seq);
    if (rec.kind == WalRecordKind::kSegmentHeader) {
      EXPECT_TRUE(decoded->identity == rec.identity);
    }
    if (rec.kind == WalRecordKind::kEpochBegin) {
      EXPECT_EQ(decoded->epoch, rec.epoch);
      EXPECT_EQ(decoded->begin_index, rec.begin_index);
      EXPECT_EQ(decoded->arrivals_obfuscated, rec.arrivals_obfuscated);
      EXPECT_EQ(decoded->next_task_slot, rec.next_task_slot);
    }
    if (rec.kind == WalRecordKind::kWorkerArrival ||
        rec.kind == WalRecordKind::kTaskArrival) {
      EXPECT_EQ(decoded->outcome.status_code, rec.outcome.status_code);
      EXPECT_EQ(decoded->outcome.message, rec.outcome.message);
      EXPECT_EQ(decoded->outcome.epsilon_charged, rec.outcome.epsilon_charged);
      EXPECT_EQ(decoded->outcome.budget_denied, rec.outcome.budget_denied);
      EXPECT_EQ(decoded->outcome.forced, rec.outcome.forced);
      EXPECT_EQ(decoded->outcome.has_worker, rec.outcome.has_worker);
    }
    if (rec.kind == WalRecordKind::kTaskArrival) {
      EXPECT_EQ(decoded->task_slot, rec.task_slot);
      EXPECT_EQ(decoded->outcome.worker, rec.outcome.worker);
      EXPECT_EQ(decoded->outcome.tree_distance, rec.outcome.tree_distance);
    }
  }
}

// The encoder writes the report of every arrival and task record, so a
// caller that clears `packed` still journals a recoverable record.
TEST(WalRecordCodec, ArrivalAndTaskRecordsAlwaysCarryTheirReport) {
  for (const WalRecordKind kind :
       {WalRecordKind::kWorkerArrival, WalRecordKind::kTaskArrival}) {
    WalRecord rec = ArrivalRecord(1, "w");
    rec.kind = kind;
    rec.packed = false;
    Result<WalRecord> decoded = DecodeWalRecord(EncodeWalRecord(rec));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded->packed);
    EXPECT_TRUE(decoded->code == rec.code);
  }
}

TEST(WalRecordCodec, RejectsPreciseCorruptions) {
  const std::string payload = EncodeWalRecord(ArrivalRecord(1, "w"));

  // Unknown kind.
  std::string bad = payload;
  bad[0] = 9;
  Result<WalRecord> r = DecodeWalRecord(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown kind"), std::string::npos);

  // Trailing bytes.
  bad = payload + "x";
  r = DecodeWalRecord(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("trailing bytes"), std::string::npos);

  // Truncated everywhere: every strict prefix must fail cleanly.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Result<WalRecord> t = DecodeWalRecord(payload.substr(0, cut));
    EXPECT_FALSE(t.ok()) << "prefix of " << cut << " bytes decoded";
  }

  // fault_kind out of range.
  WalRecord stream_fault;
  stream_fault.kind = WalRecordKind::kStreamFault;
  stream_fault.fault_kind = 7;
  r = DecodeWalRecord(EncodeWalRecord(stream_fault));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("fault_kind"), std::string::npos);

  // Worker flag on a non-task record.
  WalRecord bad_arrival = ArrivalRecord(1, "w");
  bad_arrival.outcome.has_worker = true;
  r = DecodeWalRecord(EncodeWalRecord(bad_arrival));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("worker flag"), std::string::npos);

  // An arrival or task record must carry its report. The encoder always
  // writes it, so clear the flag in the bytes: kind u8, lsn u64,
  // event_index u64, id (u32 length + bytes), then the flags byte.
  for (const WalRecordKind kind :
       {WalRecordKind::kWorkerArrival, WalRecordKind::kTaskArrival}) {
    WalRecord no_report = ArrivalRecord(1, "w");
    no_report.kind = kind;
    std::string bytes = EncodeWalRecord(no_report);
    const size_t flags_at = 1 + 8 + 8 + 4 + no_report.id.size();
    ASSERT_EQ(bytes[flags_at] & 1, 1);
    bytes[flags_at] = static_cast<char>(bytes[flags_at] & ~1);
    r = DecodeWalRecord(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("without its report"),
              std::string::npos)
        << r.status().ToString();
  }

  // A flag bit the record's kind does not define: CRC-clean, but it would
  // re-encode to other bytes, so the decoder refuses it naming the byte.
  // Arrivals and tasks define bits 0-3; departures only bit 4 (missed).
  for (const WalRecordKind kind :
       {WalRecordKind::kWorkerArrival, WalRecordKind::kTaskArrival,
        WalRecordKind::kWorkerDeparture}) {
    WalRecord rec = ArrivalRecord(1, "w");
    rec.kind = kind;
    const std::string bytes = EncodeWalRecord(rec);
    const size_t flags_at = 1 + 8 + 8 + 4 + rec.id.size();
    const bool departure = kind == WalRecordKind::kWorkerDeparture;
    for (int bit = departure ? 0 : 4; bit < 8; ++bit) {
      if (departure && bit == 4) continue;
      std::string flipped = bytes;
      flipped[flags_at] = static_cast<char>(flipped[flags_at] | (1 << bit));
      r = DecodeWalRecord(flipped);
      ASSERT_FALSE(r.ok()) << "kind " << static_cast<int>(kind) << " bit "
                           << bit;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      char expected[64];
      std::snprintf(expected, sizeof(expected),
                    "wal record: flag byte 0x%02x sets undefined bits 0x%02x",
                    static_cast<unsigned char>(flipped[flags_at]), 1u << bit);
      EXPECT_NE(r.status().message().find(expected), std::string::npos)
          << r.status().ToString();
    }
  }

  // Unsupported segment-header format versions, the previous one (whose
  // records could carry a digit path instead of a code) included.
  for (const uint32_t version : {1u, 3u}) {
    WalRecord header;
    header.kind = WalRecordKind::kSegmentHeader;
    header.identity = TestIdentity();
    header.format_version = version;
    r = DecodeWalRecord(EncodeWalRecord(header));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("unsupported format version " +
                                        std::to_string(version) +
                                        " (this build reads v2)"),
              std::string::npos)
        << r.status().ToString();
  }
}

// ---------------------------------------------------------------------
// Writer + scan

TEST(WalWriter, EveryRecordPolicyIsImmediatelyDurable) {
  const std::string dir = FreshDir("every_record");
  auto writer = WalWriter::Open(dir, TestIdentity(),
                                WalFsyncPolicy::EveryRecord(), nullptr);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (int i = 0; i < 5; ++i) {
    WalRecord rec = ArrivalRecord(static_cast<uint64_t>(i),
                                  "w-" + std::to_string(i));
    ASSERT_TRUE((*writer)->Append(&rec).ok());
    EXPECT_EQ(rec.lsn, static_cast<uint64_t>(i + 1));  // header took lsn 0
  }
  // No Close: every record must already be on disk.
  Result<WalScan> scan = ScanWalDir(dir, /*repair_torn_tail=*/false);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 6u);  // header + 5
  EXPECT_EQ(scan->next_lsn, 6u);
  EXPECT_TRUE(scan->has_identity);
  EXPECT_TRUE(scan->identity == TestIdentity());
  EXPECT_EQ(scan->truncated_records, 0u);
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(WalWriter, GroupCommitBuffersUntilThreshold) {
  const std::string dir = FreshDir("group_commit");
  auto writer = WalWriter::Open(
      dir, TestIdentity(),
      WalFsyncPolicy::GroupCommit(/*max_records=*/4, /*max_bytes=*/1 << 20,
                                  /*max_delay_seconds=*/1e9),
      nullptr);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  for (int i = 0; i < 3; ++i) {
    WalRecord rec = ArrivalRecord(static_cast<uint64_t>(i), "w");
    ASSERT_TRUE((*writer)->Append(&rec).ok());
  }
  // Three appends buffer below the threshold: only the segment header is
  // on disk.
  Result<WalScan> scan = ScanWalDir(dir, false);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 1u);

  WalRecord rec = ArrivalRecord(3, "w");
  ASSERT_TRUE((*writer)->Append(&rec).ok());  // 4th: group commits
  scan = ScanWalDir(dir, false);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 5u);

  // Sync flushes a partial group unconditionally.
  rec = ArrivalRecord(4, "w");
  ASSERT_TRUE((*writer)->Append(&rec).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  scan = ScanWalDir(dir, false);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 6u);
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(WalWriter, RotationAndCompactionKeepLsnContiguity) {
  const std::string dir = FreshDir("rotate_compact");
  auto writer = WalWriter::Open(dir, TestIdentity(),
                                WalFsyncPolicy::EveryRecord(), nullptr);
  ASSERT_TRUE(writer.ok());
  std::vector<uint64_t> first_lsn_of_segment;
  first_lsn_of_segment.push_back(0);
  for (int seg = 0; seg < 3; ++seg) {
    for (int i = 0; i < 4; ++i) {
      WalRecord rec = ArrivalRecord(static_cast<uint64_t>(seg * 4 + i), "w");
      ASSERT_TRUE((*writer)->Append(&rec).ok());
    }
    ASSERT_TRUE((*writer)->Rotate().ok());
    first_lsn_of_segment.push_back((*writer)->next_lsn() - 1);
  }
  EXPECT_EQ((*writer)->segment_seq(), 3u);

  Result<WalScan> scan = ScanWalDir(dir, false);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->segments.size(), 4u);
  EXPECT_EQ(scan->records.size(), 16u);  // 4 headers + 12 records

  // Compact below the third segment's first lsn: segments 0 and 1 go.
  ASSERT_TRUE((*writer)->CompactBelow(first_lsn_of_segment[2]).ok());
  EXPECT_FALSE(fs::exists(dir + "/" + WalSegmentFileName(0)));
  EXPECT_FALSE(fs::exists(dir + "/" + WalSegmentFileName(1)));
  EXPECT_TRUE(fs::exists(dir + "/" + WalSegmentFileName(2)));
  ASSERT_TRUE((*writer)->Close().ok());

  scan = ScanWalDir(dir, false);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->segments.size(), 2u);
  EXPECT_EQ(scan->segments[0].first_lsn, first_lsn_of_segment[2]);
  EXPECT_EQ(scan->next_lsn, 16u);  // 4 headers + 12 appends
}

TEST(WalWriter, ReopenContinuesLsnsAndRefusesForeignIdentity) {
  const std::string dir = FreshDir("reopen");
  {
    auto writer = WalWriter::Open(dir, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
    ASSERT_TRUE(writer.ok());
    WalRecord rec = ArrivalRecord(0, "w");
    ASSERT_TRUE((*writer)->Append(&rec).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  {
    auto writer = WalWriter::Open(dir, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
    ASSERT_TRUE(writer.ok());
    // Fresh segment header consumed lsn 2 (prior run used 0 and 1).
    EXPECT_EQ((*writer)->next_lsn(), 3u);
    EXPECT_EQ((*writer)->segment_seq(), 1u);
    ASSERT_TRUE((*writer)->Close().ok());
  }
  WalIdentity foreign = TestIdentity();
  foreign.server_seed ^= 1;
  auto writer = WalWriter::Open(dir, foreign, WalFsyncPolicy::EveryRecord(),
                                nullptr);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WalScanTest, RepairsTornTailWithRecordPreciseReport) {
  const std::string dir = FreshDir("torn_tail");
  {
    auto writer = WalWriter::Open(dir, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 4; ++i) {
      WalRecord rec = ArrivalRecord(static_cast<uint64_t>(i), "w");
      ASSERT_TRUE((*writer)->Append(&rec).ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  const std::string seg = dir + "/" + WalSegmentFileName(0);
  const std::string intact = ReadBytes(seg);

  // A torn frame: a partial length header at the tail.
  WriteBytes(seg, intact + std::string("\x42\x00", 2));
  Result<WalScan> refused = ScanWalDir(dir, /*repair_torn_tail=*/false);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("repair disabled"),
            std::string::npos);

  Result<WalScan> scan = ScanWalDir(dir, /*repair_torn_tail=*/true);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 5u);
  EXPECT_EQ(scan->truncated_records, 1u);
  EXPECT_EQ(scan->truncated_bytes, 2u);
  EXPECT_NE(scan->tail_detail.find("record 5"), std::string::npos)
      << scan->tail_detail;
  EXPECT_EQ(fs::file_size(seg), intact.size());  // truncated back

  // A CRC-corrupt final record repairs the same way (the whole frame is
  // dropped, not just the bad byte).
  std::string corrupt = intact;
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x40);
  WriteBytes(seg, corrupt);
  scan = ScanWalDir(dir, true);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 4u);
  EXPECT_EQ(scan->truncated_records, 1u);
  EXPECT_EQ(scan->next_lsn, 4u);
}

TEST(WalScanTest, CorruptionInNonLastSegmentFailsLoudly) {
  const std::string dir = FreshDir("mid_corruption");
  {
    auto writer = WalWriter::Open(dir, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
    ASSERT_TRUE(writer.ok());
    WalRecord rec = ArrivalRecord(0, "w");
    ASSERT_TRUE((*writer)->Append(&rec).ok());
    ASSERT_TRUE((*writer)->Rotate().ok());
    rec = ArrivalRecord(1, "w");
    ASSERT_TRUE((*writer)->Append(&rec).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  const std::string seg0 = dir + "/" + WalSegmentFileName(0);
  std::string bytes = ReadBytes(seg0);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  WriteBytes(seg0, bytes);

  Result<WalScan> scan = ScanWalDir(dir, /*repair_torn_tail=*/true);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(scan.status().message().find("before the journal tail"),
            std::string::npos)
      << scan.status().message();
}

TEST(WalScanTest, HeaderlessLastSegmentIsDeletedMidRotationKill) {
  const std::string dir = FreshDir("mid_rotation");
  {
    auto writer = WalWriter::Open(dir, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
    ASSERT_TRUE(writer.ok());
    WalRecord rec = ArrivalRecord(0, "w");
    ASSERT_TRUE((*writer)->Append(&rec).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  // A crash between creating the next segment file and flushing its
  // header leaves a torn (here: half a frame header) segment 1.
  const std::string seg1 = dir + "/" + WalSegmentFileName(1);
  WriteBytes(seg1, std::string("\x10\x00\x00", 3));

  Result<WalScan> scan = ScanWalDir(dir, /*repair_torn_tail=*/true);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->truncated_records, 1u);
  EXPECT_FALSE(fs::exists(seg1));
  EXPECT_EQ(scan->segments.size(), 1u);
}

TEST(WalScanTest, UnreadableNewestSegmentFailsOpenAndIsKept) {
  // A segment that cannot be read is not a torn one: repair must not cut
  // or delete it. A directory in the newest segment's place reads with an
  // error, so opening the journal fails with IOError and leaves it there.
  const std::string dir = FreshDir("unreadable_tail");
  {
    auto writer = WalWriter::Open(dir, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
    ASSERT_TRUE(writer.ok());
    WalRecord rec = ArrivalRecord(0, "w");
    ASSERT_TRUE((*writer)->Append(&rec).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  const std::string seg1 = dir + "/" + WalSegmentFileName(1);
  ASSERT_TRUE(fs::create_directory(seg1));

  auto reopened = WalWriter::Open(dir, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIOError)
      << reopened.status();
  EXPECT_TRUE(fs::is_directory(seg1));
  EXPECT_FALSE(ReadBytes(dir + "/" + WalSegmentFileName(0)).empty());
}

TEST(WalScanTest, MissingMiddleSegmentIsCorruption) {
  // Losing the *oldest* segment is indistinguishable from compaction and
  // must scan cleanly; losing a middle segment is a sequence gap.
  const std::string dir = FreshDir("seq_gap");
  {
    auto writer = WalWriter::Open(dir, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
    ASSERT_TRUE(writer.ok());
    for (int seg = 0; seg < 3; ++seg) {
      WalRecord rec = ArrivalRecord(static_cast<uint64_t>(seg), "w");
      ASSERT_TRUE((*writer)->Append(&rec).ok());
      if (seg < 2) {
        ASSERT_TRUE((*writer)->Rotate().ok());
      }
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  ASSERT_TRUE(fs::remove(dir + "/" + WalSegmentFileName(1)));
  Result<WalScan> scan = ScanWalDir(dir, true);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(scan.status().message().find("sequence gap"), std::string::npos);
}

TEST(WalScanTest, EmptyOrMissingDirectoryIsAnEmptyScan) {
  Result<WalScan> scan =
      ScanWalDir(::testing::TempDir() + "/tbf_wal_never_created", true);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->next_lsn, 0u);
  EXPECT_FALSE(scan->has_identity);
}

// ---------------------------------------------------------------------
// Fault sites

#ifndef TBF_FAULTS_DISABLED

TEST(WalFaults, AppendCrashLeavesRepairableTornPrefix) {
  const std::string dir = FreshDir("fault_append");
  fault::FaultPlan plan;
  fault::FaultSpec kill;
  kill.site = "wal.append";
  kill.kind = fault::FaultKind::kFail;
  kill.code = StatusCode::kAborted;
  kill.after = 3;  // hit-indexed by LSN; lsn 0 is the segment header
  kill.count = 1;
  plan.faults.push_back(kill);
  fault::ScopedFaultPlan armed(plan);
  ASSERT_TRUE(armed.armed());

  auto writer = WalWriter::Open(dir, TestIdentity(),
                                WalFsyncPolicy::EveryRecord(), nullptr);
  ASSERT_TRUE(writer.ok());
  Status failed = Status::OK();
  int appended = 0;
  for (int i = 0; i < 6; ++i) {
    WalRecord rec = ArrivalRecord(static_cast<uint64_t>(i), "w");
    failed = (*writer)->Append(&rec);
    if (!failed.ok()) break;
    ++appended;
  }
  ASSERT_EQ(failed.code(), StatusCode::kAborted);
  EXPECT_EQ(appended, 2);  // lsns 1 and 2 landed; lsn 3 crashed

  // The writer is poisoned: the journal on disk must stay a valid prefix.
  WalRecord rec = ArrivalRecord(99, "w");
  EXPECT_EQ((*writer)->Append(&rec).code(), StatusCode::kFailedPrecondition);

  Result<WalScan> scan = ScanWalDir(dir, /*repair_torn_tail=*/true);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 3u);  // header + 2 appends
  EXPECT_EQ(scan->next_lsn, 3u);
}

TEST(WalFaults, FsyncAndRotateFailuresSurface) {
  {
    const std::string dir = FreshDir("fault_fsync");
    fault::FaultPlan plan;
    fault::FaultSpec spec;
    spec.site = "wal.fsync";
    spec.kind = fault::FaultKind::kFail;
    spec.code = StatusCode::kIOError;
    spec.after = 0;  // the first record commit (headers fsync directly)
    spec.count = 1;
    plan.faults.push_back(spec);
    fault::ScopedFaultPlan armed(plan);
    ASSERT_TRUE(armed.armed());
    auto writer = WalWriter::Open(dir, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalRecord rec = ArrivalRecord(0, "w");
    EXPECT_EQ((*writer)->Append(&rec).code(), StatusCode::kIOError);
  }
  {
    const std::string dir = FreshDir("fault_rotate");
    fault::FaultPlan plan;
    fault::FaultSpec spec;
    spec.site = "wal.rotate";
    spec.kind = fault::FaultKind::kFail;
    spec.code = StatusCode::kIOError;
    spec.after = 1;  // hit-indexed by the new segment seq
    spec.count = 1;
    plan.faults.push_back(spec);
    fault::ScopedFaultPlan armed(plan);
    ASSERT_TRUE(armed.armed());
    auto writer = WalWriter::Open(dir, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
    ASSERT_TRUE(writer.ok());
    WalRecord rec = ArrivalRecord(0, "w");
    ASSERT_TRUE((*writer)->Append(&rec).ok());
    EXPECT_EQ((*writer)->Rotate().code(), StatusCode::kIOError);
  }
}

#endif  // TBF_FAULTS_DISABLED

// ---------------------------------------------------------------------
// Seeded fuzz sweep: 2600 cases total. Mutation and truncation must never
// crash a parser or the scanner — every case either parses, or fails with
// a Status, or (tail cases) repairs with an accurate truncation report.

// One to three random byte overwrites, then — one time in four — a cut
// at a random length.
std::string MutateOrTruncate(std::string bytes, Rng& rng) {
  const int mutations = 1 + static_cast<int>(rng.NextU64() % 3);
  for (int m = 0; m < mutations; ++m) {
    const size_t pos = static_cast<size_t>(rng.NextU64() % bytes.size());
    bytes[pos] = static_cast<char>(rng.NextU64() & 0xFF);
  }
  if (rng.NextU64() % 4 == 0) {
    bytes.resize(static_cast<size_t>(rng.NextU64() % (bytes.size() + 1)));
  }
  return bytes;
}

TEST(WalFuzzTest, MutatedAndTruncatedPayloadsNeverCrash) {
  std::vector<std::string> payloads;
  payloads.push_back(EncodeWalRecord(ArrivalRecord(3, "worker-xyz")));
  {
    WalRecord task;
    task.kind = WalRecordKind::kTaskArrival;
    task.event_index = 5;
    task.id = "task-1";
    task.packed = true;
    task.code = LeafCode{0x1234} << 100;
    task.task_slot = 2;
    task.outcome.has_worker = true;
    task.outcome.worker = "worker-xyz";
    task.outcome.tree_distance = 4.5;
    payloads.push_back(EncodeWalRecord(task));
    WalRecord header;
    header.kind = WalRecordKind::kSegmentHeader;
    header.identity = TestIdentity();
    header.segment_seq = 1;
    payloads.push_back(EncodeWalRecord(header));
    WalRecord epoch;
    epoch.kind = WalRecordKind::kEpochBegin;
    epoch.epoch = 7;
    payloads.push_back(EncodeWalRecord(epoch));
  }

  Rng rng(20260808);
  int decoded_ok = 0;
  for (int iter = 0; iter < 1400; ++iter) {
    const std::string& original = payloads[static_cast<size_t>(
        rng.NextU64() % payloads.size())];
    Result<WalRecord> r = DecodeWalRecord(MutateOrTruncate(original, rng));
    if (r.ok()) ++decoded_ok;  // benign mutation — fine, just must not crash
  }
  // Sanity: the sweep actually exercised the reject paths.
  EXPECT_LT(decoded_ok, 1400);
}

// Checkpoints share the journal's frames, so the same sweep covers them:
// a damaged file is refused with an InvalidArgument that names the record
// (and, for frame damage, its byte offset) — never a crash, never a
// silently shortened state.
TEST(WalFuzzTest, MutatedAndTruncatedCheckpointsFailPrecisely) {
  ReplayCheckpoint c;
  c.trace_fingerprint = 0xC0FFEE11u;
  c.num_shards = 2;
  c.epoch_seconds = 60.0;
  c.next_event = 40;
  c.report.registered = 9;
  c.per_epoch.resize(2);
  for (int i = 0; i < 4; ++i) {
    TaskOutcome task;
    task.task_id = "task-" + std::to_string(i);
    if (i % 2 == 0) task.worker = "w-" + std::to_string(i);
    task.reported_tree_distance = 1.5 * i;
    c.task_outcomes.push_back(task);
  }
  c.quarantined_events.push_back(QuarantineRecord{3, "w-x", "empty id"});
  c.server.rng_state = "1 2 3";
  c.server.pool_size = 3;
  c.server.free_index_ids = {1};
  for (const int id : {0, 2}) {
    ShardedServerState::Worker w;
    w.id = "w-" + std::to_string(id);
    w.code = 0x1234u + static_cast<uint64_t>(id);
    w.index_id = id;
    w.shard = id / 2;
    c.server.workers.push_back(w);
  }
  EpochBudgetLedger::State ledger;
  ledger.epoch_spent = {{"w-2", 0.6}, {"w-0", 0.6}};
  ledger.lifetime_spent = {{"w-2", 1.2}, {"w-0", 0.6}};
  c.server.ledger = ledger;
  c.metrics.counters.push_back({"tbf_serve_assigned_total", 2.0});
  c.metrics.histograms.emplace_back().name = "tbf_serve_dispatch_latency_ns";
  const std::string golden = SerializeReplayCheckpoint(c);
  ASSERT_TRUE(ParseReplayCheckpoint(golden).ok());

  Rng rng(20261017);
  int rejected = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const std::string bytes = MutateOrTruncate(golden, rng);
    Result<ReplayCheckpoint> r = ParseReplayCheckpoint(bytes);
    if (r.ok()) {
      // Only a no-op mutation (a byte overwritten with itself) parses.
      EXPECT_EQ(bytes, golden) << iter;
      continue;
    }
    ++rejected;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << iter;
    const std::string message = r.status().message();
    const bool precise =
        message.rfind("checkpoint record ", 0) == 0 ||
        message.rfind("checkpoint: missing required record(s)", 0) == 0 ||
        message == "checkpoint: empty file";
    EXPECT_TRUE(precise) << iter << ": " << message;
  }
  EXPECT_GT(rejected, 550);
}

TEST(WalFuzzTest, MutatedJournalDirectoriesNeverCrashTheScanner) {
  // A 3-segment journal (multi-segment torn-tail coverage).
  const std::string golden = FreshDir("fuzz_golden");
  {
    auto writer = WalWriter::Open(golden, TestIdentity(),
                                  WalFsyncPolicy::EveryRecord(), nullptr);
    ASSERT_TRUE(writer.ok());
    for (int seg = 0; seg < 3; ++seg) {
      for (int i = 0; i < 5; ++i) {
        WalRecord rec = ArrivalRecord(static_cast<uint64_t>(seg * 5 + i),
                                      "w-" + std::to_string(i));
        ASSERT_TRUE((*writer)->Append(&rec).ok());
      }
      if (seg < 2) {
        ASSERT_TRUE((*writer)->Rotate().ok());
      }
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  std::vector<std::string> seg_names;
  std::vector<std::string> seg_bytes;
  for (uint64_t s = 0; s < 3; ++s) {
    seg_names.push_back(WalSegmentFileName(s));
    seg_bytes.push_back(ReadBytes(golden + "/" + seg_names.back()));
  }

  const std::string dir = FreshDir("fuzz_case");
  Rng rng(987654321);
  int repaired = 0;
  int rejected = 0;
  for (int iter = 0; iter < 600; ++iter) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    const size_t victim = static_cast<size_t>(rng.NextU64() % 3);
    for (size_t s = 0; s < 3; ++s) {
      std::string bytes = seg_bytes[s];
      if (s == victim) {
        if (iter % 3 == 0) {
          // Truncation (torn write) at a random offset.
          bytes.resize(static_cast<size_t>(rng.NextU64() %
                                           (bytes.size() + 1)));
        } else {
          const size_t pos =
              static_cast<size_t>(rng.NextU64() % bytes.size());
          bytes[pos] = static_cast<char>(rng.NextU64() & 0xFF);
        }
      }
      WriteBytes(dir + "/" + seg_names[s], bytes);
    }
    Result<WalScan> scan = ScanWalDir(dir, /*repair_torn_tail=*/true);
    if (!scan.ok()) {
      ++rejected;
      continue;
    }
    if (scan->truncated_records > 0) ++repaired;
    // Whatever survived must rescan cleanly: repair left a valid journal.
    Result<WalScan> rescan = ScanWalDir(dir, false);
    EXPECT_TRUE(rescan.ok()) << iter << ": " << rescan.status().ToString();
    if (rescan.ok()) {
      EXPECT_EQ(rescan->records.size(), scan->records.size()) << iter;
    }
  }
  // The sweep must have exercised both the repair path (tail damage) and
  // the loud-rejection path (non-tail corruption).
  EXPECT_GT(repaired, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace tbf
