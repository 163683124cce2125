// Byte-golden pins for every on-disk record: one encoded journal record
// of every WalRecordKind (and the flag variants of the dispatch
// records), a small replay checkpoint, the outcome log's header and one
// row of each kind, and a small tree snapshot. The formats carry no
// version bump when their codecs are rewritten, so the bytes must not
// move: a journal, checkpoint, outcome log or snapshot written by one
// build must read back, byte for byte, in the next.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/frames.h"
#include "hst/leaf_code.h"
#include "hst/snapshot.h"
#include "serve/checkpoint.h"
#include "serve/wal.h"

namespace tbf {
namespace {

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

WalRecord Dispatch(WalRecordKind kind, uint64_t lsn, uint64_t event_index,
                   const std::string& id) {
  WalRecord rec;
  rec.kind = kind;
  rec.lsn = lsn;
  rec.event_index = event_index;
  rec.id = id;
  rec.code = (LeafCode{0x0102030405060708ull} << 64) | 0x1112131415161718ull;
  return rec;
}

struct GoldenRecord {
  const char* name;
  WalRecord record;
  const char* hex;
};

std::vector<GoldenRecord> GoldenRecords() {
  std::vector<GoldenRecord> golden;

  WalRecord header;
  header.kind = WalRecordKind::kSegmentHeader;
  header.lsn = 0;
  header.segment_seq = 3;
  header.identity.trace_fingerprint = 0xC0FFEE11u;
  header.identity.num_shards = 4;
  header.identity.epoch_seconds = 60.0;
  header.identity.server_seed = 7;
  header.identity.obfuscation_seed = 11;
  golden.push_back({"segment header", header,
                    "00000000000000000002000000030000000000000011eeffc0040000"
                    "000000000000004e4007000000000000000b00000000000000"});

  WalRecord epoch;
  epoch.kind = WalRecordKind::kEpochBegin;
  epoch.lsn = 1;
  epoch.epoch = -2;
  epoch.begin_index = 17;
  epoch.arrivals_obfuscated = 99;
  epoch.next_task_slot = 5;
  golden.push_back({"epoch begin", epoch,
                    "010100000000000000feffffffffffffff1100000000000000630000"
                    "00000000000500000000000000"});

  WalRecord arrival = Dispatch(WalRecordKind::kWorkerArrival, 2, 4, "w-1");
  arrival.has_epsilon = true;
  arrival.declared_epsilon = 0.6;
  arrival.outcome.epsilon_charged = 0.6;
  golden.push_back({"arrival with epsilon", arrival,
                    "020200000000000000040000000000000003000000772d3103181716"
                    "15141312110807060504030201333333333333e33f00000000000000"
                    "00333333333333e33f00"});

  WalRecord bare = Dispatch(WalRecordKind::kWorkerArrival, 3, 5, "w-2");
  bare.outcome.status_code =
      static_cast<int32_t>(StatusCode::kResourceExhausted);
  bare.outcome.message = "shed";
  golden.push_back({"arrival without epsilon", bare,
                    "020300000000000000050000000000000003000000772d3201181716"
                    "15141312110807060504030201090000000400000073686564000000"
                    "000000000000"});

  WalRecord task = Dispatch(WalRecordKind::kTaskArrival, 4, 8, "t-1");
  task.has_epsilon = true;
  task.declared_epsilon = 0.25;
  task.task_slot = 3;
  task.outcome.has_worker = true;
  task.outcome.worker = "w-1";
  task.outcome.tree_distance = 12.5;
  task.outcome.epsilon_charged = 0.25;
  golden.push_back({"task with a worker", task,
                    "030400000000000000080000000000000003000000742d310b181716"
                    "15141312110807060504030201000000000000d03f00000000000000"
                    "00000000000000d03f00030000000000000003000000772d31000000"
                    "0000002940"});

  WalRecord unassigned = Dispatch(WalRecordKind::kTaskArrival, 5, 9, "t-2");
  unassigned.task_slot = 4;
  unassigned.outcome.status_code = static_cast<int32_t>(StatusCode::kNotFound);
  unassigned.outcome.message = "no worker";
  unassigned.outcome.tree_distance = -1.0;
  golden.push_back({"task without a worker", unassigned,
                    "030500000000000000090000000000000003000000742d3201181716"
                    "1514131211080706050403020103000000090000006e6f20776f726b"
                    "65720000000000000000000400000000000000000000000000f0bf"});

  WalRecord forced = Dispatch(WalRecordKind::kTaskArrival, 6, 10, "t-3");
  forced.has_epsilon = true;
  forced.declared_epsilon = 0.5;
  forced.task_slot = 5;
  forced.outcome.forced = true;
  forced.outcome.status_code =
      static_cast<int32_t>(StatusCode::kResourceExhausted);
  forced.outcome.message = "injected";
  forced.outcome.budget_denied = 2;
  golden.push_back({"forced denial", forced,
                    "0306000000000000000a0000000000000003000000742d3307181716"
                    "15141312110807060504030201000000000000e03f09000000080000"
                    "00696e6a656374656400000000000000000205000000000000000000"
                    "000000000000"});

  WalRecord missed = Dispatch(WalRecordKind::kWorkerDeparture, 7, 11, "w-1");
  missed.missed = true;
  golden.push_back({"departure missed", missed,
                    "0407000000000000000b0000000000000003000000772d3110"});

  WalRecord departed = Dispatch(WalRecordKind::kWorkerDeparture, 8, 12, "w-2");
  golden.push_back({"departure not missed", departed,
                    "0408000000000000000c0000000000000003000000772d3200"});

  WalRecord quarantine;
  quarantine.kind = WalRecordKind::kQuarantine;
  quarantine.lsn = 9;
  quarantine.event_index = 13;
  quarantine.id = "";
  quarantine.cause = "empty event id";
  golden.push_back({"quarantine", quarantine,
                    "0509000000000000000d00000000000000000000000e000000656d70"
                    "7479206576656e74206964"});

  WalRecord stream_fault;
  stream_fault.kind = WalRecordKind::kStreamFault;
  stream_fault.lsn = 10;
  stream_fault.event_index = 14;
  stream_fault.fault_kind = 2;
  golden.push_back({"stream fault", stream_fault,
                    "060a000000000000000e0000000000000002"});

  WalRecord republish;
  republish.kind = WalRecordKind::kRepublish;
  republish.lsn = 11;
  republish.tree_epoch = 2;
  golden.push_back({"republish", republish,
                    "070b000000000000000200000000000000"});
  return golden;
}

TEST(FormatGolden, JournalRecordBytesArePinned) {
  for (const GoldenRecord& g : GoldenRecords()) {
    const std::string bytes = EncodeWalRecord(g.record);
    EXPECT_EQ(Hex(bytes), g.hex) << g.name;
    Result<WalRecord> decoded = DecodeWalRecord(bytes);
    ASSERT_TRUE(decoded.ok()) << g.name << ": " << decoded.status();
    EXPECT_EQ(EncodeWalRecord(*decoded), bytes) << g.name;
  }
}

ReplayCheckpoint SmallCheckpoint() {
  ReplayCheckpoint c;
  c.trace_fingerprint = 0xDEADBEEF;
  c.num_shards = 2;
  c.epoch_seconds = 0.1;
  c.server_seed = 7;
  c.obfuscation_seed = 11;
  c.next_event = 42;
  c.arrivals_obfuscated = 33;
  c.next_task_slot = 2;
  c.wal_next_lsn = 1234;
  c.outcome_log_bytes = 321;
  c.epoch_rows = 1;
  c.quarantine_rows = 1;
  c.report.registered = 3;
  c.report.assigned = 1;
  c.report.processed_events = 40;

  EpochStats epoch;
  epoch.epoch = 1;
  epoch.worker_arrivals = 3;
  epoch.epsilon_spent = 1.5;
  c.per_epoch.push_back(epoch);

  TaskOutcome assigned;
  assigned.task_id = "t1";
  assigned.worker = "w0";
  assigned.reported_tree_distance = 7.25;
  c.task_outcomes.push_back(assigned);
  TaskOutcome refused;
  refused.task_id = "t2";
  refused.status = Status::ResourceExhausted("epoch budget exhausted");
  c.task_outcomes.push_back(refused);
  c.quarantined_events.push_back(QuarantineRecord{17, "", "empty event id"});

  c.server.assigned_tasks = 1;
  c.server.tree_epoch = 1;
  c.server.rng_state = "7 1234";
  c.server.pool_size = 2;
  c.server.free_index_ids = {1};
  ShardedServerState::Worker w;
  w.id = "w0";
  w.code = (LeafCode{0x0123456789ABCDEFull} << 64) | 0xFEDCBA9876543210ull;
  w.index_id = 0;
  w.shard = 1;
  c.server.workers.push_back(w);

  EpochBudgetLedger::State ledger;
  ledger.epoch = 1;
  ledger.totals.epsilon_spent = 1.5;
  ledger.totals.charges = 3;
  ledger.totals.denied_epoch = 1;
  ledger.epoch_spent.emplace_back("user b", 0.5);
  ledger.epoch_spent.emplace_back("user a", 1.0);
  ledger.lifetime_spent.emplace_back("user b", 0.5);
  c.server.ledger = ledger;

  obs::CounterSample counter;
  counter.name = "tbf_serve_assigned_total";
  counter.value = 1.0;
  c.metrics.counters.push_back(counter);
  obs::GaugeSample gauge;
  gauge.name = "tbf_serve_available_workers";
  gauge.value = 1.0;
  c.metrics.gauges.push_back(gauge);
  obs::HistogramSample hist;
  hist.name = "tbf_serve_dispatch_latency_ns";
  hist.count = 3;
  hist.sum = 4096;
  hist.buckets[10] = 2;
  hist.buckets[12] = 1;
  c.metrics.histograms.push_back(hist);
  return c;
}

TEST(FormatGolden, CheckpointBytesArePinned) {
  const std::string bytes = SerializeReplayCheckpoint(SmallCheckpoint());
  EXPECT_EQ(bytes.size(), 1143u);
  EXPECT_EQ(Crc32(bytes), 1545801290u);
  Result<ReplayCheckpoint> parsed = ParseReplayCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeReplayCheckpoint(*parsed), bytes);
}

// The outcome log's header and one row of each kind (two task rows: with
// and without a worker), framed; then the log they make reads back.
TEST(FormatGolden, OutcomeLogRowBytesArePinned) {
  ReplayCheckpoint c = SmallCheckpoint();
  std::string log = OutcomeLogHeader(IdentityOf(c));
  EXPECT_EQ(Hex(log),
            "31000000f715f28200080000005442462d4f4c4f4701000000efbead"
            "de020000009a9999999999b93f07000000000000000b000000000000"
            "00");
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"epoch",
       "71000000424311590101000000000000000300000000000000000000"
       "00000000000000000000000000000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000000000000"
       "000000f83f0000000000000000000000000000000000000000000000"
       "000000000000000000"},
      {"task with a worker",
       "1e000000c77a7afd0202000000743100000000000000000102000000"
       "77300000000000001d40"},
      {"task without a worker",
       "2e000000c0ac4bc602020000007432090000001600000065706f6368"
       "2062756467657420657868617573746564000000000000000000"},
      {"quarantine",
       "1f000000df9745c7031100000000000000000000000e000000656d70"
       "7479206576656e74206964"}};
  std::vector<std::string> encoded(4);
  AppendOutcomeRows(c.per_epoch, {}, {}, &encoded[0]);
  AppendOutcomeRows({}, std::span(c.task_outcomes).first(1), {}, &encoded[1]);
  AppendOutcomeRows({}, std::span(c.task_outcomes).last(1), {}, &encoded[2]);
  AppendOutcomeRows({}, {}, c.quarantined_events, &encoded[3]);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(Hex(encoded[i]), rows[i].second) << rows[i].first;
    log += encoded[i];
  }
  const ReplayCheckpoint want = c;
  c.outcome_log_bytes = log.size();
  ASSERT_TRUE(ParseOutcomeRows(log, &c).ok());
  std::string reencoded = OutcomeLogHeader(IdentityOf(c));
  AppendOutcomeRows(c.per_epoch, c.task_outcomes, c.quarantined_events,
                    &reencoded);
  EXPECT_EQ(reencoded, log);
  EXPECT_EQ(c.task_outcomes.size(), want.task_outcomes.size());
}

// The trace fingerprint is stored in every journal segment header and
// checkpoint, so its value is on-disk bytes too.
TEST(FormatGolden, TraceFingerprintIsPinned) {
  EventTrace trace;
  trace.region = BBox{-1.5, 0.0, 100.0, 250.25};
  trace.events.push_back(
      {1.5, EventKind::kWorkerArrival, "w1", Point{3.0, 4.0}});
  trace.events.push_back({2.25, EventKind::kTaskArrival, "task-2", Point{}});
  trace.events.push_back(
      {7.0, EventKind::kWorkerDeparture, "", Point{-0.5, 1e9}});
  EXPECT_EQ(FingerprintEventTrace(trace), 3492778885u);
}

TEST(FormatGolden, SnapshotBytesArePinned) {
  // depth 2 x arity 3: four points on distinct leaves.
  const LeafCodec codec(2, 3);
  std::vector<LeafCode> codes;
  for (const LeafPath& path : {LeafPath{0, 0}, LeafPath{0, 2}, LeafPath{1, 1},
                               LeafPath{2, 0}}) {
    codes.push_back(codec.Pack(path));
  }
  Result<CompleteHst> tree = CompleteHst::FromParts(
      2, 3, 8.0, {{0.0, 0.0}, {10.0, 0.0}, {0.5, 20.25}, {-3.0, 7.0}},
      std::move(codes));
  ASSERT_TRUE(tree.ok()) << tree.status();
  const std::string bytes = SerializeHstSnapshot(*tree);
  EXPECT_EQ(Hex(bytes),
            "2900000029ac77b000080000005442462d534e41500300000002000000030000"
            "000000000000002040040000000000000041000000ac749ba201000000000000"
            "0000000000000000000000000000000024400000000000000000000000000000"
            "e03f000000000040344000000000000008c00000000000001c4041000000762a"
            "2008020000000000000000000000000000000000000000000000000000000000"
            "0000200000000000000000000000000000005000000000000000000000000000"
            "00008009000000882f0b51030300000000000000");
  Result<CompleteHst> parsed = ParseHstSnapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeHstSnapshot(*parsed), bytes);
}

}  // namespace
}  // namespace tbf
