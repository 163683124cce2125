#include "serve/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_file.h"
#include "common/frames.h"
#include "geo/grid.h"
#include "serve/recovery.h"
#include "workload/synthetic.h"

namespace tbf {
namespace {

TEST(FingerprintTest, SeesEveryFieldAndNeverFails) {
  EventTrace a;
  a.region = BBox::Square(100);
  TimedEvent e;
  e.kind = EventKind::kWorkerArrival;
  e.time = 1.5;
  e.id = "w1";
  e.location = Point{3.0, 4.0};
  a.events.push_back(e);

  EventTrace b = a;
  b.events[0].location.x = 3.0000001;
  EXPECT_NE(FingerprintEventTrace(a), FingerprintEventTrace(b));

  EventTrace c = a;
  c.events[0].id = "w2";
  EXPECT_NE(FingerprintEventTrace(a), FingerprintEventTrace(c));

  // Poison traces fingerprint fine (NaN time, empty id).
  EventTrace poison = a;
  poison.events[0].time = std::numeric_limits<double>::quiet_NaN();
  poison.events[0].id = "";
  const uint32_t fp1 = FingerprintEventTrace(poison);
  const uint32_t fp2 = FingerprintEventTrace(poison);
  EXPECT_EQ(fp1, fp2);  // deterministic even for NaN payloads
}

// The outcome log holding `c`'s history rows: header, then every row.
std::string OutcomeLogOf(const ReplayCheckpoint& c) {
  std::string log = OutcomeLogHeader(IdentityOf(c));
  AppendOutcomeRows(c.per_epoch, c.task_outcomes, c.quarantined_events, &log);
  return log;
}

ReplayCheckpoint MakeTrickyCheckpoint() {
  ReplayCheckpoint c;
  c.trace_fingerprint = 0xDEADBEEF;
  c.num_shards = 4;
  c.epoch_seconds = 0.1;  // not exactly representable — the bits must hold it
  c.server_seed = 7;
  c.obfuscation_seed = 11;
  c.next_event = 42;
  c.arrivals_obfuscated = 33;
  c.next_task_slot = 9;
  c.report.registered = 12;
  c.report.assigned = 5;
  c.report.quarantined = 2;
  c.report.processed_events = 40;
  c.report.faults_duplicated = 1;
  c.report.checkpoints_written = 6;
  c.wal_next_lsn = 1234;

  EpochStats epoch;
  epoch.epoch = -3;  // negative epochs are legal (events before t0? keep i64)
  epoch.worker_arrivals = 8;
  epoch.epsilon_spent = 1.23456789012345e-7;
  epoch.shed = 1;
  epoch.quarantined = 2;
  c.per_epoch.push_back(epoch);

  TaskOutcome task;
  task.task_id = "task with spaces and % and -leading";
  task.status = Status::ResourceExhausted("shard 1 backlog full (>4)");
  task.worker = std::nullopt;
  task.reported_tree_distance = 7.25;
  c.task_outcomes.push_back(task);
  TaskOutcome assigned;
  assigned.task_id = "t2";
  assigned.worker = "worker\nwith\tcontrol";
  assigned.reported_tree_distance =
      std::numeric_limits<double>::infinity();  // IEEE bits carry inf
  c.task_outcomes.push_back(assigned);

  c.quarantined_events.push_back(
      QuarantineRecord{17, "", "empty event id"});
  c.quarantined_events.push_back(
      QuarantineRecord{21, "-weird id", "non-finite event time"});
  c.outcome_log_bytes = OutcomeLogOf(c).size();
  c.epoch_rows = 1;
  c.quarantine_rows = 2;

  c.server.assigned_tasks = 5;
  c.server.rng_state = "7 1234 5678 90";  // spaces survive
  c.server.pool_size = 3;
  c.server.free_index_ids = {1};
  ShardedServerState::Worker w;
  w.id = "w0";
  // Both words of the 128-bit code must survive.
  w.code = (LeafCode{0x0123456789ABCDEFull} << 64) | 0xFFFFFFFFFFFFFFFFull;
  w.index_id = 0;
  w.shard = 3;
  c.server.workers.push_back(w);
  w.id = "w2";
  w.code = 0;
  w.index_id = 2;
  w.shard = 0;
  c.server.workers.push_back(w);

  EpochBudgetLedger::State ledger;
  ledger.epoch = 2;
  ledger.totals.epsilon_spent = 3.3;
  ledger.totals.charges = 11;
  ledger.totals.denied_epoch = 1;
  // First-charge order, not sorted: the codec must keep it.
  ledger.epoch_spent.emplace_back("user b", 0.3);
  ledger.epoch_spent.emplace_back("user a", 0.6);
  ledger.lifetime_spent.emplace_back("user b", 0.9);
  ledger.lifetime_spent.emplace_back("user a", 1.8);
  c.server.ledger = ledger;

  obs::CounterSample counter;
  counter.name = "tbf_serve_assigned_total{shard=\"0\"}";
  counter.value = 5.0;
  c.metrics.counters.push_back(counter);
  obs::GaugeSample gauge;
  gauge.name = "tbf_serve_available_workers";
  gauge.value = -2;
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

TEST(CheckpointTest, SerializeParseRoundTripIsLossless) {
  const ReplayCheckpoint original = MakeTrickyCheckpoint();
  const std::string text = SerializeReplayCheckpoint(original);
  auto parsed = ParseReplayCheckpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The file holds no history: the rows come back from the outcome log.
  EXPECT_TRUE(parsed->per_epoch.empty());
  EXPECT_TRUE(parsed->task_outcomes.empty());
  EXPECT_TRUE(parsed->quarantined_events.empty());
  EXPECT_EQ(parsed->outcome_log_bytes, original.outcome_log_bytes);
  EXPECT_EQ(parsed->epoch_rows, 1u);
  EXPECT_EQ(parsed->quarantine_rows, 2u);
  const Status rows = ParseOutcomeRows(OutcomeLogOf(original), &*parsed);
  ASSERT_TRUE(rows.ok()) << rows.ToString();
  const ReplayCheckpoint& c = *parsed;

  EXPECT_EQ(c.trace_fingerprint, original.trace_fingerprint);
  EXPECT_EQ(c.num_shards, original.num_shards);
  EXPECT_EQ(c.epoch_seconds, original.epoch_seconds);  // bit-exact
  EXPECT_EQ(c.next_event, original.next_event);
  EXPECT_EQ(c.arrivals_obfuscated, original.arrivals_obfuscated);
  EXPECT_EQ(c.next_task_slot, original.next_task_slot);
  EXPECT_EQ(c.report.registered, original.report.registered);
  EXPECT_EQ(c.report.quarantined, original.report.quarantined);
  EXPECT_EQ(c.report.faults_duplicated, original.report.faults_duplicated);

  ASSERT_EQ(c.per_epoch.size(), 1u);
  EXPECT_EQ(c.per_epoch[0].epoch, -3);
  EXPECT_EQ(c.per_epoch[0].epsilon_spent, original.per_epoch[0].epsilon_spent);
  EXPECT_EQ(c.per_epoch[0].shed, 1u);
  EXPECT_EQ(c.per_epoch[0].quarantined, 2u);

  ASSERT_EQ(c.task_outcomes.size(), 2u);
  EXPECT_EQ(c.task_outcomes[0].task_id, original.task_outcomes[0].task_id);
  EXPECT_EQ(c.task_outcomes[0].status, original.task_outcomes[0].status);
  EXPECT_FALSE(c.task_outcomes[0].worker.has_value());
  EXPECT_EQ(c.task_outcomes[1].worker, original.task_outcomes[1].worker);
  EXPECT_TRUE(std::isinf(c.task_outcomes[1].reported_tree_distance));

  ASSERT_EQ(c.quarantined_events.size(), 2u);
  EXPECT_EQ(c.quarantined_events[0].event_index, 17u);
  EXPECT_EQ(c.quarantined_events[0].id, "");
  EXPECT_EQ(c.quarantined_events[0].cause, "empty event id");
  EXPECT_EQ(c.quarantined_events[1].id, "-weird id");

  EXPECT_EQ(c.report.checkpoints_written, 6u);
  EXPECT_EQ(c.wal_next_lsn, 1234u);
  EXPECT_EQ(c.version, 8);

  EXPECT_EQ(c.server.rng_state, original.server.rng_state);
  EXPECT_EQ(c.server.pool_size, 3u);
  EXPECT_EQ(c.server.free_index_ids, original.server.free_index_ids);
  ASSERT_EQ(c.server.workers.size(), 2u);
  EXPECT_EQ(c.server.workers[0].code, original.server.workers[0].code);
  EXPECT_EQ(c.server.workers[0].shard, 3);
  EXPECT_EQ(c.server.workers[1].code, 0u);
  ASSERT_TRUE(c.server.ledger.has_value());
  EXPECT_EQ(c.server.ledger->totals.epsilon_spent, 3.3);
  EXPECT_EQ(c.server.ledger->epoch_spent,
            original.server.ledger->epoch_spent);  // order kept
  EXPECT_EQ(c.server.ledger->lifetime_spent,
            original.server.ledger->lifetime_spent);

  ASSERT_EQ(c.metrics.counters.size(), 1u);
  EXPECT_EQ(c.metrics.counters[0].name, original.metrics.counters[0].name);
  ASSERT_EQ(c.metrics.gauges.size(), 1u);
  EXPECT_EQ(c.metrics.gauges[0].value, -2);
  ASSERT_EQ(c.metrics.histograms.size(), 1u);
  EXPECT_EQ(c.metrics.histograms[0].buckets[10], 2u);
  EXPECT_EQ(c.metrics.histograms[0].sum, 4096u);
}

TEST(CheckpointTest, SerializationIsDeterministic) {
  const ReplayCheckpoint c = MakeTrickyCheckpoint();
  EXPECT_EQ(SerializeReplayCheckpoint(c), SerializeReplayCheckpoint(c));
}

// One CRC-framed record: a kind byte, then `fields`.
std::string Frame(uint8_t kind, const std::string& fields) {
  std::string frame;
  AppendFrame(&frame, std::string(1, static_cast<char>(kind)) + fields);
  return frame;
}

std::string HeaderFields(const std::string& magic, uint32_t version) {
  std::string fields;
  {
    FieldWriter io(&fields);
    io(magic, version);
  }
  return fields;
}

void ExpectRejected(const std::string& bytes, const std::string& needle) {
  auto parsed = ParseReplayCheckpoint(bytes);
  ASSERT_FALSE(parsed.ok()) << "accepted; wanted '" << needle << "'";
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(needle), std::string::npos)
      << parsed.status().message();
}

// The payloads of `bytes`' frames, in order.
std::vector<std::string> Payloads(const std::string& bytes) {
  std::vector<std::string> payloads;
  const FrameWalk walk = WalkFrames(bytes, [&](std::string_view payload) {
    payloads.emplace_back(payload);
    return Status::OK();
  });
  EXPECT_FALSE(walk.bad) << walk.bad_detail;
  return payloads;
}

// `bytes` with the payload of its first `kind` record replaced by
// `edit(payload)`, reframed (so every CRC is clean).
template <typename Edit>
std::string WithRecord(const std::string& bytes, uint8_t kind,
                       const Edit& edit) {
  std::string out;
  bool edited = false;
  for (std::string payload : Payloads(bytes)) {
    if (!edited && static_cast<uint8_t>(payload[0]) == kind) {
      payload = edit(payload);
      edited = true;
    }
    AppendFrame(&out, payload);
  }
  EXPECT_TRUE(edited) << "no record of kind " << int{kind};
  return out;
}

TEST(CheckpointTest, DetectsCorruptionPrecisely) {
  const std::string bytes = SerializeReplayCheckpoint(MakeTrickyCheckpoint());
  const std::string header = Frame(0, HeaderFields("TBF-CKPT", 8));
  ASSERT_EQ(bytes.substr(0, header.size()), header);

  // Flipped payload byte: CRC mismatch, naming the record and its offset.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  ExpectRejected(flipped, "CRC mismatch");
  ExpectRejected(flipped, "checkpoint record ");

  // Torn tail inside a frame, and a cut exactly at a frame boundary (the
  // end record is gone): both refused, not silently short.
  ExpectRejected(bytes.substr(0, bytes.size() - 3), "past end of file");
  const std::string end_frame = Frame(13, std::string(8, '\0'));
  ExpectRejected(bytes.substr(0, bytes.size() - end_frame.size()),
                 "missing required record(s) end");

  // Header damage: wrong magic, unknown version, or no header at all.
  const std::string body = bytes.substr(header.size());
  ExpectRejected(Frame(0, HeaderFields("TBF-NOPE", 8)) + body, "bad magic");
  ExpectRejected(Frame(0, HeaderFields("TBF-CKPT", 9)) + body,
                 "unsupported version 9");
  // The previous versions are refused by name: v7, which wrote one record
  // per free, worker and spend row, v6, which repeated each worker's index
  // id in a slot row, and v5, which carried the history rows.
  ExpectRejected(Frame(0, HeaderFields("TBF-CKPT", 7)) + body,
                 "unsupported version 7 (this build reads v8)");
  ExpectRejected(Frame(0, HeaderFields("TBF-CKPT", 6)) + body,
                 "unsupported version 6 (this build reads v8)");
  ExpectRejected(Frame(0, HeaderFields("TBF-CKPT", 5)) + body,
                 "unsupported version 5 (this build reads v8)");
  ExpectRejected(body, "first record must be the checkpoint header");

  // Grammar: a duplicated singleton, a record after the end, a record of
  // unknown kind, trailing bytes, and an end record that miscounts.
  ExpectRejected(header + header + body, "header record: duplicate");
  ExpectRejected(bytes + Frame(6, std::string(4, '\0')),
                 "free record: follows the end record");
  ExpectRejected(header + Frame(42, ""), "unknown record kind 42");
  ExpectRejected(Frame(0, HeaderFields("TBF-CKPT", 8) + "x"),
                 "trailing bytes");
  std::string miscounted = bytes.substr(0, bytes.size() - end_frame.size());
  std::string count;
  {
    FieldWriter io(&count);
    io(uint64_t{7});
  }
  ExpectRejected(miscounted + Frame(13, count), "end record: counts 7");

  // Short fields name the field and byte.
  ExpectRejected(header + Frame(1, "abc"), "identity record: short read");

  // Table records (CRC-clean, so only the rows are wrong) name the row: a
  // worker table cut inside its second row (w2's id read, its code not), a
  // free-id table with two bytes of a second id, and a free-id table with
  // no rows.
  ExpectRejected(WithRecord(bytes, 7,
                            [](const std::string& p) {
                              return p.substr(0, p.size() - 20);
                            }),
                 "worker row 1: short read (u64 at byte 37)");
  ExpectRejected(
      WithRecord(bytes, 6, [](const std::string& p) { return p + "ab"; }),
      "free row 1: short read (u32 at byte 5)");
  ExpectRejected(
      WithRecord(bytes, 6, [](const std::string& p) { return p.substr(0, 1); }),
      "free row 0: empty table record");

  // The retired text format gets a precise refusal, not a frame error.
  ExpectRejected("TBFCKPT1 0badc0de 12\nversion 3\n", "text-format");

  // Empty / garbage inputs.
  ExpectRejected("", "empty file");
  ExpectRejected("not a checkpoint at all", "checkpoint record 0 (offset 0)");
}

// Parses `log` for a copy of `c` covering its first `covered` bytes.
Status ParseCovered(const ReplayCheckpoint& c, const std::string& log,
                    uint64_t covered, ReplayCheckpoint* out) {
  *out = c;
  out->outcome_log_bytes = covered;
  return ParseOutcomeRows(log, out);
}

TEST(OutcomeLogTest, ReadsTheCoveredPrefixAndRefusesDamagePrecisely) {
  const ReplayCheckpoint c = MakeTrickyCheckpoint();
  const std::string header = OutcomeLogHeader(IdentityOf(c));
  const std::string log = OutcomeLogOf(c);
  ReplayCheckpoint got;

  // Rows past the covered length (a batch no checkpoint covers yet) are
  // not read; a shorter covered prefix (an older checkpoint's) reads
  // fewer rows.
  std::string longer = log;
  AppendOutcomeRows(c.per_epoch, {}, {}, &longer);
  ASSERT_TRUE(ParseCovered(c, longer, log.size(), &got).ok());
  EXPECT_EQ(got.per_epoch.size(), 1u);
  EXPECT_EQ(got.task_outcomes.size(), 2u);
  EXPECT_EQ(got.quarantined_events.size(), 2u);
  std::string first_batch = header;
  AppendOutcomeRows(c.per_epoch, {}, {}, &first_batch);
  ASSERT_TRUE(ParseCovered(c, log, first_batch.size(), &got).ok());
  EXPECT_EQ(got.per_epoch.size(), 1u);
  EXPECT_TRUE(got.task_outcomes.empty());
  // A checkpoint covering no log reads nothing, not even a file.
  got.per_epoch.push_back({});
  ASSERT_TRUE(ParseCovered(c, "", 0, &got).ok());
  EXPECT_TRUE(got.per_epoch.empty());

  const auto refused = [&](const std::string& bytes, uint64_t covered,
                           const std::string& needle,
                           StatusCode code = StatusCode::kInvalidArgument) {
    const Status status = ParseCovered(c, bytes, covered, &got);
    EXPECT_EQ(status.code(), code) << needle << ": " << status.ToString();
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.message();
  };
  // A log cut below the covered length, and a length inside a frame.
  refused(log.substr(0, log.size() - 3), log.size(), "fewer than");
  refused(log, log.size() - 3, "past end of file");
  // Damage inside the prefix names the record.
  std::string flipped = log;
  flipped[log.size() - 5] ^= 0x01;
  refused(flipped, log.size(), "CRC mismatch");
  refused(flipped, log.size(), "outcome log record ");
  // Header damage, a log without its header, a second header, an
  // unknown row kind.
  const std::string bad_magic =
      Frame(0, HeaderFields("TBF-NOPE", 1)) + log.substr(header.size());
  refused(bad_magic, bad_magic.size(), "bad magic");
  const std::string next_version =
      Frame(0, HeaderFields("TBF-OLOG", 2)) + log.substr(header.size());
  refused(next_version, next_version.size(),
          "unsupported version 2 (this build reads v1)");
  refused(log.substr(header.size()), log.size() - header.size(),
          "the first record must be the outcome log header");
  refused(header + header, 2 * header.size(), "header record: duplicate");
  refused(header + Frame(9, ""), header.size() + 9, "unknown record kind 9");
  // Another run's log is never read as this checkpoint's.
  ReplayCheckpoint other = c;
  other.server_seed += 1;
  std::string foreign = OutcomeLogOf(other);
  refused(foreign, foreign.size(), "different run",
          StatusCode::kFailedPrecondition);
}

TEST(OutcomeLogTest, WriterAppendsDurablyAndResumesAtACoveredPrefix) {
  // The replay loop's outcome-log writer: an AppendFile that starts with
  // the header and appends one batch of rows per checkpoint.
  const std::string path = ::testing::TempDir() + "/tbf_outcome_log_test";
  const ReplayCheckpoint c = MakeTrickyCheckpoint();
  const WalIdentity identity = IdentityOf(c);
  const auto append = [](AppendFile& log, std::span<const EpochStats> epochs,
                         std::span<const TaskOutcome> tasks,
                         std::span<const QuarantineRecord> quarantines) {
    std::string rows;
    AppendOutcomeRows(epochs, tasks, quarantines, &rows);
    return log.Append(rows).ok() && log.Sync().ok();
  };
  uint64_t first_batch = 0;
  {
    auto log = AppendFile::CreateDurable(path, OutcomeLogHeader(identity));
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(log->size(), OutcomeLogHeader(identity).size());
    ASSERT_TRUE(append(*log, c.per_epoch, c.task_outcomes, {}));
    first_batch = log->size();
    ASSERT_TRUE(append(*log, {}, {}, c.quarantined_events));
    EXPECT_EQ(log->size(), OutcomeLogOf(c).size());
    ASSERT_TRUE(log->Close().ok());
  }
  ReplayCheckpoint read = c;
  read.outcome_log_bytes = first_batch;
  auto written = ReadFileToString(path, "outcome log");
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_TRUE(ParseOutcomeRows(*written, &read).ok());
  EXPECT_EQ(read.task_outcomes.size(), 2u);
  EXPECT_TRUE(read.quarantined_events.empty());

  // Resuming at the first batch cuts the second; the next append follows
  // the cut.
  {
    auto log = AppendFile::OpenAt(path, first_batch);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE(append(*log, c.per_epoch, {}, {}));
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::string want = OutcomeLogHeader(identity);
  AppendOutcomeRows(c.per_epoch, c.task_outcomes, {}, &want);
  AppendOutcomeRows(c.per_epoch, {}, {}, &want);
  EXPECT_TRUE(bytes == want);

  // A log shorter than the covered prefix cannot be resumed.
  EXPECT_EQ(AppendFile::OpenAt(path, want.size() + 1).status().code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, FileRoundTripIsAtomicAndLossless) {
  const std::string path = ::testing::TempDir() + "/tbf_checkpoint_test.ckpt";
  const ReplayCheckpoint original = MakeTrickyCheckpoint();
  ASSERT_TRUE(WriteReplayCheckpointFile(original, path).ok());
  // Overwrite in place (the rename path) — still readable, still current.
  ReplayCheckpoint second = original;
  second.next_event = 99;
  ASSERT_TRUE(WriteReplayCheckpointFile(second, path).ok());
  auto read = ReadReplayCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->next_event, 99u);
  EXPECT_EQ(read->server.rng_state, original.server.rng_state);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadReplayCheckpointFile(path).ok());  // precise IOError
}

// encode -> decode -> RestoreState into a fresh engine -> ExportState ->
// encode must reproduce the file byte for byte on a churned, multi-epoch,
// budgeted replay. ExportState no longer sorts the ledger, so this is the
// guarantee that the first-charge order survives a restore and that the
// format is deterministic.
TEST(CheckpointTest, RestoreExportIsAByteFixedPoint) {
  Rng rng(7);
  auto grid = UniformGridPoints(BBox::Square(200), 8);
  ASSERT_TRUE(grid.ok());
  auto framework = TbfFramework::Build(std::move(*grid), EuclideanMetric(),
                                       &rng, TbfOptions{});
  ASSERT_TRUE(framework.ok());

  SyntheticEventConfig config;
  config.base.num_workers = 150;
  config.base.num_tasks = 120;
  config.base.seed = 404;
  config.horizon_seconds = 600.0;
  config.departure_probability = 0.3;
  auto trace = GenerateEventTrace(config);
  ASSERT_TRUE(trace.ok());

  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 2;
  options.epoch_budget = 1.5;
  options.lifetime_budget = 4.0;
  options.checkpoint_every_epochs = 3;
  options.checkpoint_path =
      ::testing::TempDir() + "/tbf_checkpoint_fixed_point.ckpt";
  auto report = RunEventReplay(*framework, *trace, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::ifstream in(options.checkpoint_path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(options.checkpoint_path.c_str());
  std::remove((options.checkpoint_path + ".outcomes").c_str());
  auto decoded = ParseReplayCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The state is genuinely churned: several epochs, recycled index ids,
  // ledger rows in both scopes.
  ASSERT_GE(decoded->epoch_rows, 6u);
  ASSERT_FALSE(decoded->server.free_index_ids.empty());
  ASSERT_TRUE(decoded->server.ledger.has_value());
  ASSERT_FALSE(decoded->server.ledger->epoch_spent.empty());
  ASSERT_GT(decoded->server.ledger->lifetime_spent.size(),
            decoded->server.ledger->epoch_spent.size());

  ShardedServerOptions server_options;
  server_options.num_shards = options.num_shards;
  server_options.epoch_budget = options.epoch_budget;
  server_options.lifetime_budget = options.lifetime_budget;
  server_options.seed = options.server_seed;
  obs::MetricRegistry metrics;
  server_options.metrics = &metrics;
  auto fresh = ShardedTbfServer::Create(framework->tree_ptr(), server_options);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(
      (*fresh)->RestoreState(decoded->server, framework->tree_ptr()).ok());

  ReplayCheckpoint reexported = *decoded;
  reexported.server = (*fresh)->ExportState();
  EXPECT_TRUE(SerializeReplayCheckpoint(reexported) == bytes)
      << "restore + export changed the checkpoint bytes";
}

// A durable, epoch-capped replay of `days` synthetic days at a steady
// rate, with a few poison events quarantined. Returns the report, and the
// newest checkpoint's size in `newest_bytes`.
Result<ReplayReport> ReplaySyntheticDays(const TbfFramework& framework,
                                         int days, const std::string& dir,
                                         uint64_t* newest_bytes) {
  SyntheticEventConfig config;
  config.base.num_workers = 1500 * days;
  config.base.num_tasks = 1800 * days;
  config.base.seed = 8;
  config.horizon_seconds = 86400.0 * days;
  config.worker_arrival_fraction = 1.0;
  config.departure_probability = 0.2;
  TBF_ASSIGN_OR_RETURN(EventTrace trace, GenerateEventTrace(config));
  for (size_t i = 500; i < trace.events.size(); i += 1000) {
    trace.events[i].id.clear();  // poison: quarantined with its cause
  }

  ReplayOptions options;
  options.epoch_seconds = 1800.0;
  options.epoch_budget = 1.5;  // the epoch cap only: no lifetime table
  options.poison_policy = PoisonPolicy::kQuarantine;
  options.durable_dir = dir;
  options.wal_fsync = WalFsyncPolicy::None();
  options.checkpoint_every_epochs = 1;
  std::filesystem::remove_all(dir);
  TBF_ASSIGN_OR_RETURN(ReplayReport report,
                       RunEventReplay(framework, trace, options));
  TBF_ASSIGN_OR_RETURN(RecoveredRun recovered, RecoverReplayDir(dir));
  if (!recovered.checkpoint.has_value()) {
    return Status::Internal("no checkpoint survived");
  }
  *newest_bytes = std::filesystem::file_size(recovered.checkpoint_path);
  return report;
}

// The outcome-log rows of one kind, re-encoded for a bytewise comparison.
std::string Rows(std::span<const EpochStats> epochs,
                 std::span<const TaskOutcome> tasks,
                 std::span<const QuarantineRecord> quarantines) {
  std::string out;
  AppendOutcomeRows(epochs, tasks, quarantines, &out);
  return out;
}

TEST(CheckpointTest, NewestCheckpointSizeIsFlatWhenTheTraceDoubles) {
  Rng rng(7);
  auto grid = UniformGridPoints(BBox::Square(200), 8);
  ASSERT_TRUE(grid.ok());
  auto framework = TbfFramework::Build(std::move(*grid), EuclideanMetric(),
                                       &rng, TbfOptions{});
  ASSERT_TRUE(framework.ok());

  const std::string dir = ::testing::TempDir() + "/tbf_checkpoint_flat";
  uint64_t one_day = 0;
  uint64_t two_days = 0;
  auto short_run = ReplaySyntheticDays(*framework, 1, dir + "_1", &one_day);
  ASSERT_TRUE(short_run.ok()) << short_run.status().ToString();
  auto long_run = ReplaySyntheticDays(*framework, 2, dir + "_2", &two_days);
  ASSERT_TRUE(long_run.ok()) << long_run.status().ToString();
  ASSERT_EQ(long_run->epochs, 2 * short_run->epochs);
  ASSERT_GT(long_run->task_outcomes.size(),
            short_run->task_outcomes.size() * 3 / 2);
  ASSERT_GE(long_run->quarantined_events.size(), 5u);

  // The newest checkpoint holds live state only: doubling the history
  // leaves its size within 10%.
  const double ratio =
      static_cast<double>(two_days) / static_cast<double>(one_day);
  EXPECT_GT(ratio, 0.9) << one_day << " vs " << two_days << " bytes";
  EXPECT_LT(ratio, 1.1) << one_day << " vs " << two_days << " bytes";

  // The history is in the outcome log, which decodes to exactly the
  // report's rows.
  auto recovered = RecoverReplayDir(dir + "_2");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const ReplayCheckpoint& ckpt = *recovered->checkpoint;
  EXPECT_EQ(ckpt.outcome_log_bytes,
            std::filesystem::file_size(OutcomeLogPath(dir + "_2")));
  EXPECT_EQ(Rows(ckpt.per_epoch, {}, {}), Rows(long_run->per_epoch, {}, {}));
  EXPECT_EQ(Rows({}, ckpt.task_outcomes, {}),
            Rows({}, long_run->task_outcomes, {}));
  EXPECT_EQ(Rows({}, {}, ckpt.quarantined_events),
            Rows({}, {}, long_run->quarantined_events));
  std::filesystem::remove_all(dir + "_1");
  std::filesystem::remove_all(dir + "_2");
}

}  // namespace
}  // namespace tbf
