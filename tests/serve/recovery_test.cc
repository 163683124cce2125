// Recovery supervisor: newest-valid checkpoint selection with fallback,
// transient-IO retry with bounded backoff (checkpoint and outcome-log
// reads; an unreadable log cuts nothing), gap detection, identity
// cross-checks, journal verification (a rewritten
// record is a divergence naming its lsn), and an end-to-end crash/recover
// equivalence smoke test (the full kill-anywhere drill lives in
// tests/chaos/kill_anywhere_test.cc).

#include "serve/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/replay_compare.h"
#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/frames.h"
#include "geo/grid.h"
#include "hst/snapshot.h"
#include "serve/fixtures.h"
#include "serve/replay.h"
#include "workload/synthetic.h"

namespace tbf {
namespace {

namespace fs = std::filesystem;

EventTrace SmallTrace(int workers = 80, int tasks = 60, uint64_t seed = 5) {
  SyntheticEventConfig config;
  config.base.num_workers = workers;
  config.base.num_tasks = tasks;
  config.base.seed = seed;
  config.horizon_seconds = 600.0;
  config.departure_probability = 0.15;
  auto trace = GenerateEventTrace(config);
  EXPECT_TRUE(trace.ok());
  return std::move(trace).MoveValueUnsafe();
}

ReplayOptions DurableOptions(const std::string& dir) {
  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.durable_dir = dir;
  options.wal_fsync = WalFsyncPolicy::None();  // speed; crash tests opt up
  options.keep_checkpoints = 2;
  options.checkpoint_every_epochs = 1;
  options.export_final_state = true;
  options.lifetime_budget = 4.0;
  options.epoch_budget = 1.5;
  return options;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/tbf_recovery_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void CorruptFile(const std::string& path) {
  std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(io.good()) << path;
  io.seekp(10);
  io.put('\x7f');
}

void ExpectServerStateEqual(const ShardedServerState& a,
                            const ShardedServerState& b) {
  EXPECT_EQ(a.assigned_tasks, b.assigned_tasks);
  EXPECT_EQ(a.tree_epoch, b.tree_epoch);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.pool_size, b.pool_size);
  EXPECT_EQ(a.free_index_ids, b.free_index_ids);
  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (size_t i = 0; i < a.workers.size(); ++i) {
    EXPECT_EQ(a.workers[i].id, b.workers[i].id) << i;
    EXPECT_EQ(a.workers[i].code, b.workers[i].code) << i;
    EXPECT_EQ(a.workers[i].index_id, b.workers[i].index_id) << i;
    EXPECT_EQ(a.workers[i].shard, b.workers[i].shard) << i;
  }
  ASSERT_EQ(a.ledger.has_value(), b.ledger.has_value());
  if (a.ledger.has_value()) {
    EXPECT_EQ(a.ledger->epoch, b.ledger->epoch);
    EXPECT_EQ(a.ledger->epoch_spent, b.ledger->epoch_spent);
    EXPECT_EQ(a.ledger->lifetime_spent, b.ledger->lifetime_spent);
    EXPECT_EQ(a.ledger->totals.epsilon_spent, b.ledger->totals.epsilon_spent);
    EXPECT_EQ(a.ledger->totals.charges, b.ledger->totals.charges);
    EXPECT_EQ(a.ledger->totals.denied_epoch, b.ledger->totals.denied_epoch);
    EXPECT_EQ(a.ledger->totals.denied_lifetime,
              b.ledger->totals.denied_lifetime);
  }
}

TEST(RecoveryTest, DurableRunMatchesPlainRunAndLeavesValidArtifacts) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("durable_plain");

  ReplayOptions plain;
  plain.epoch_seconds = 60.0;
  plain.export_final_state = true;
  plain.lifetime_budget = 4.0;
  plain.epoch_budget = 1.5;
  auto baseline = RunEventReplay(framework, trace, plain);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto durable = RunEventReplay(framework, trace, DurableOptions(dir));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  // Journaling must not change the run.
  EXPECT_EQ(durable->assigned, baseline->assigned);
  EXPECT_EQ(durable->registered, baseline->registered);
  EXPECT_EQ(durable->denied, baseline->denied);
  ASSERT_TRUE(baseline->final_state.has_value());
  ASSERT_TRUE(durable->final_state.has_value());
  ExpectServerStateEqual(*durable->final_state, *baseline->final_state);
  EXPECT_GT(durable->checkpoints_written, 0u);

  // The directory recovers: newest checkpoint + journal suffix.
  auto recovered = RecoverReplayDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(recovered->checkpoint.has_value());
  EXPECT_EQ(recovered->checkpoints_rejected, 0u);
  EXPECT_EQ(recovered->io_retries, 0u);
  EXPECT_LE(recovered->retained.size(), 2u);  // keep_checkpoints
  EXPECT_FALSE(recovered->retained.empty());
  EXPECT_EQ(recovered->retained.back().path, recovered->checkpoint_path);
  EXPECT_TRUE(recovered->wal.has_identity);
  // Compaction kept the journal back to the oldest retained checkpoint.
  EXPECT_LE(recovered->wal.records.front().lsn,
            recovered->retained.front().wal_next_lsn);
}

TEST(RecoveryTest, FallsBackWhenTheNewestCheckpointIsCorrupt) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("fallback");
  auto durable = RunEventReplay(framework, trace, DurableOptions(dir));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  auto before = RecoverReplayDir(dir);
  ASSERT_TRUE(before.ok());
  ASSERT_GE(before->retained.size(), 2u);
  const RetainedCheckpoint newest = before->retained.back();
  const RetainedCheckpoint previous =
      before->retained[before->retained.size() - 2];

  CorruptFile(newest.path);
  auto after = RecoverReplayDir(dir);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->checkpoints_rejected, 1u);
  EXPECT_EQ(after->checkpoint_path, previous.path);
  ASSERT_TRUE(after->checkpoint.has_value());
  EXPECT_EQ(after->checkpoint->wal_next_lsn, previous.wal_next_lsn);
  // The journal still covers the older restore point (compaction policy).
  EXPECT_LE(after->wal.records.front().lsn, previous.wal_next_lsn);
  EXPECT_EQ(after->suffix_begin,
            static_cast<size_t>(previous.wal_next_lsn -
                                after->wal.records.front().lsn));

  // A checkpoint in the retired text format is rejected the same way.
  {
    std::ofstream text(newest.path, std::ios::binary | std::ios::trunc);
    text << "TBFCKPT1 00000000 10\nversion 3\n";
  }
  auto text_after = RecoverReplayDir(dir);
  ASSERT_TRUE(text_after.ok()) << text_after.status().ToString();
  EXPECT_EQ(text_after->checkpoints_rejected, 1u);
  EXPECT_EQ(text_after->checkpoint_path, previous.path);
}

// The report rows a recovered run must reproduce, field for field.
void ExpectSameHistory(const ReplayReport& got, const ReplayReport& want) {
  ASSERT_EQ(got.task_outcomes.size(), want.task_outcomes.size());
  for (size_t i = 0; i < got.task_outcomes.size(); ++i) {
    EXPECT_EQ(got.task_outcomes[i].task_id, want.task_outcomes[i].task_id);
    EXPECT_EQ(got.task_outcomes[i].status, want.task_outcomes[i].status);
    EXPECT_EQ(got.task_outcomes[i].worker, want.task_outcomes[i].worker);
    EXPECT_EQ(got.task_outcomes[i].reported_tree_distance,
              want.task_outcomes[i].reported_tree_distance);
  }
  ASSERT_EQ(got.per_epoch.size(), want.per_epoch.size());
  for (size_t i = 0; i < got.per_epoch.size(); ++i) {
    EXPECT_EQ(got.per_epoch[i].epoch, want.per_epoch[i].epoch);
    EXPECT_EQ(got.per_epoch[i].assigned, want.per_epoch[i].assigned);
    EXPECT_EQ(got.per_epoch[i].epsilon_spent, want.per_epoch[i].epsilon_spent);
  }
  EXPECT_EQ(got.assigned, want.assigned);
  EXPECT_EQ(got.denied, want.denied);
}

TEST(RecoveryTest, StrayTmpCheckpointIsIgnored) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("stray_tmp");
  const ReplayOptions options = DurableOptions(dir);
  auto durable = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  auto before = RecoverReplayDir(dir);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_FALSE(before->retained.empty());

  // A crash inside WriteFileAtomic leaves the next checkpoint's `.tmp`
  // behind, cut short. Plant one: a truncated copy of the newest
  // checkpoint under the next ordinal's tmp name.
  const RetainedCheckpoint newest = before->retained.back();
  auto bytes = ReadFileToString(newest.path, "checkpoint");
  ASSERT_TRUE(bytes.ok());
  {
    std::ofstream tmp(
        dir + "/" + ReplayCheckpointFileName(newest.ordinal + 1) + ".tmp",
        std::ios::binary | std::ios::trunc);
    tmp << bytes->substr(0, bytes->size() / 2);
  }

  // Not a checkpoint: neither a candidate nor a rejection.
  auto after = RecoverReplayDir(dir);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->checkpoints_rejected, 0u);
  EXPECT_EQ(after->checkpoint_path, before->checkpoint_path);
  ASSERT_EQ(after->retained.size(), before->retained.size());
  for (size_t i = 0; i < after->retained.size(); ++i) {
    EXPECT_EQ(after->retained[i].ordinal, before->retained[i].ordinal);
    EXPECT_EQ(after->retained[i].path, before->retained[i].path);
    EXPECT_EQ(after->retained[i].wal_next_lsn,
              before->retained[i].wal_next_lsn);
  }

  ReplayOptions recover = options;
  recover.recover = true;
  auto recovered = RunEventReplay(framework, trace, recover);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameHistory(*recovered, *durable);
  ExpectServerStateEqual(*recovered->final_state, *durable->final_state);
}

TEST(RecoveryTest, OutcomeLogCutBelowTheNewestCheckpointFallsBack) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("log_cut");
  const ReplayOptions options = DurableOptions(dir);
  auto durable = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  auto before = RecoverReplayDir(dir);
  ASSERT_TRUE(before.ok());
  ASSERT_GE(before->retained.size(), 2u);
  const std::string previous =
      before->retained[before->retained.size() - 2].path;
  auto older = ReadReplayCheckpointFile(previous);
  ASSERT_TRUE(older.ok());
  const uint64_t newest_bytes = before->checkpoint->outcome_log_bytes;
  ASSERT_LT(older->outcome_log_bytes, newest_bytes);

  // The log loses its last bytes below the newest checkpoint's length:
  // that checkpoint is rejected like a corrupt file and the older one
  // wins. The scan itself cuts nothing.
  fs::resize_file(OutcomeLogPath(dir), newest_bytes - 1);
  auto after = RecoverReplayDir(dir);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->checkpoints_rejected, 1u);
  EXPECT_EQ(after->checkpoint_path, previous);
  EXPECT_EQ(fs::file_size(OutcomeLogPath(dir)), newest_bytes - 1);
  EXPECT_EQ(after->checkpoint->per_epoch.size(), older->epoch_rows);

  // Recovery cuts the log back to the older checkpoint's length, re-runs
  // the journal from there and re-logs the lost rows.
  ReplayOptions recover = options;
  recover.recover = true;
  auto recovered = RunEventReplay(framework, trace, recover);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameHistory(*recovered, *durable);
  ExpectServerStateEqual(*recovered->final_state, *durable->final_state);
  EXPECT_EQ(fs::file_size(OutcomeLogPath(dir)), newest_bytes);
  auto reread = RecoverReplayDir(dir);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread->checkpoints_rejected, 0u);
  EXPECT_EQ(reread->checkpoint->outcome_log_bytes, newest_bytes);
}

TEST(RecoveryTest, OutcomeLogTornTailPastTheNewestCheckpointIsTruncated) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("log_torn_tail");
  const ReplayOptions options = DurableOptions(dir);
  auto durable = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  const uint64_t covered = fs::file_size(OutcomeLogPath(dir));

  // A crash after a log append, before the checkpoint covering it: whole
  // rows plus a torn one past the newest checkpoint's length.
  {
    std::string tail;
    AppendOutcomeRows(durable->per_epoch, {}, {}, &tail);
    std::ofstream log(OutcomeLogPath(dir), std::ios::binary | std::ios::app);
    log << tail << tail.substr(0, tail.size() / 2);
  }
  const uint64_t torn = fs::file_size(OutcomeLogPath(dir));
  ASSERT_GT(torn, covered);
  auto after = RecoverReplayDir(dir);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->checkpoints_rejected, 0u);
  EXPECT_EQ(after->checkpoint->outcome_log_bytes, covered);
  EXPECT_EQ(fs::file_size(OutcomeLogPath(dir)), torn);  // the scan cuts nothing
  EXPECT_EQ(after->checkpoint->per_epoch.size(), durable->per_epoch.size());

  ReplayOptions recover = options;
  recover.recover = true;
  auto recovered = RunEventReplay(framework, trace, recover);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameHistory(*recovered, *durable);
  EXPECT_EQ(fs::file_size(OutcomeLogPath(dir)), covered);
}

TEST(RecoveryTest, AllCheckpointsLostMeansGapUnlessJournalIsComplete) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("gap");
  auto durable = RunEventReplay(framework, trace, DurableOptions(dir));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  // Compaction dropped journal prefixes covered by retained checkpoints,
  // so losing every checkpoint leaves an unrecoverable gap — which must
  // be a loud error, not a silent partial recovery.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0) fs::remove(entry.path());
  }
  auto recovered = RecoverReplayDir(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(recovered.status().message().find("unrecoverable"),
            std::string::npos)
      << recovered.status().message();
}

TEST(RecoveryTest, CheckpointWithoutJournalIsALoudError) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("no_journal");
  auto durable = RunEventReplay(framework, trace, DurableOptions(dir));
  ASSERT_TRUE(durable.ok());

  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) fs::remove(entry.path());
  }
  auto recovered = RecoverReplayDir(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(recovered.status().message().find("no journal survived"),
            std::string::npos);
}

TEST(RecoveryTest, ForeignCheckpointIsRejectedByIdentity) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("identity");
  const std::string foreign_dir = FreshDir("identity_foreign");
  auto durable = RunEventReplay(framework, trace, DurableOptions(dir));
  ASSERT_TRUE(durable.ok());

  ReplayOptions foreign = DurableOptions(foreign_dir);
  foreign.server_seed = 999;  // a different run identity
  auto other = RunEventReplay(framework, trace, foreign);
  ASSERT_TRUE(other.ok());

  // Drop the foreign run's newest checkpoint into our directory with a
  // newer ordinal: the supervisor must refuse to combine them.
  auto other_rec = RecoverReplayDir(foreign_dir);
  ASSERT_TRUE(other_rec.ok());
  fs::copy_file(other_rec->checkpoint_path,
                dir + "/" + ReplayCheckpointFileName(99));
  auto recovered = RecoverReplayDir(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(recovered.status().message().find("different runs"),
            std::string::npos);
}

TEST(RecoveryTest, CheckpointWithInconsistentTaskSlotIsRefused) {
  // A CRC-valid checkpoint whose cursor names other than exactly its
  // stored task rows must be refused by both restore paths, never index
  // past those rows (or resize to the bogus slot) on the next window.
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("task_slot");
  ReplayOptions options = DurableOptions(dir);
  options.keep_checkpoints = 1000;
  auto durable = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  std::vector<std::string> ckpts;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") ckpts.push_back(entry.path());
  }
  std::sort(ckpts.begin(), ckpts.end());
  ASSERT_GT(ckpts.size(), 2u);

  // Single-file resume from the oldest checkpoint: windows remain.
  auto oldest = ReadReplayCheckpointFile(ckpts.front());
  ASSERT_TRUE(oldest.ok()) << oldest.status().ToString();
  ASSERT_LT(oldest->next_event, trace.events.size());
  ReplayOptions resume = options;
  resume.durable_dir.clear();
  resume.checkpoint_path = dir + "/bumped.single";
  resume.resume_from_checkpoint = true;
  // A single-file checkpoint's history rows sit next to it.
  fs::copy_file(OutcomeLogPath(dir), resume.checkpoint_path + ".outcomes");
  const int64_t slot = oldest->next_task_slot;
  for (const int64_t bumped : {slot + 1, slot + 1000, int64_t{1} << 40,
                               int64_t{-1}}) {
    ReplayCheckpoint ckpt = *oldest;
    ckpt.next_task_slot = bumped;
    ASSERT_TRUE(WriteReplayCheckpointFile(ckpt, resume.checkpoint_path).ok());
    auto resumed = RunEventReplay(framework, trace, resume);
    ASSERT_FALSE(resumed.ok()) << "next_task_slot " << bumped;
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(resumed.status().message().find("next_task_slot"),
              std::string::npos)
        << resumed.status().ToString();
  }

  // Durable recovery restores the newest checkpoint the same way.
  auto newest = ReadReplayCheckpointFile(ckpts.back());
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  newest->next_task_slot += 1;
  ASSERT_TRUE(WriteReplayCheckpointFile(*newest, ckpts.back()).ok());
  ReplayOptions recover = options;
  recover.recover = true;
  auto recovered = RunEventReplay(framework, trace, recover);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(recovered.status().message().find("next_task_slot"),
            std::string::npos)
      << recovered.status().ToString();
}

TEST(RecoveryTest, EmptyDirectoryIsAFreshStart) {
  const std::string dir = FreshDir("empty");
  auto recovered = RecoverReplayDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->checkpoint.has_value());
  EXPECT_TRUE(recovered->wal.records.empty());
  EXPECT_EQ(recovered->suffix_begin, 0u);
}

// A durable run that never checkpoints, so recovery re-runs the whole
// trace against the whole journal.
ReplayOptions UncheckpointedOptions(const std::string& dir) {
  ReplayOptions options = DurableOptions(dir);
  options.checkpoint_every_epochs = 1 << 20;
  return options;
}

// Rewrites the journal record at `lsn` in place, re-framed so its CRC
// stays valid. Returns false when no segment holds that lsn.
bool RewriteJournalRecord(const std::string& dir, uint64_t lsn,
                          const std::function<void(WalRecord*)>& edit) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) != 0) continue;
    std::string bytes;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    std::string rewritten;
    bool found = false;
    const FrameWalk walk =
        WalkFrames(bytes, [&](std::string_view payload) -> Status {
          TBF_ASSIGN_OR_RETURN(WalRecord rec, DecodeWalRecord(payload));
          if (rec.lsn == lsn) {
            edit(&rec);
            AppendFrame(&rewritten, EncodeWalRecord(rec));
            found = true;
          } else {
            AppendFrame(&rewritten, payload);
          }
          return Status::OK();
        });
    EXPECT_FALSE(walk.bad) << walk.bad_detail;
    if (found) {
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out << rewritten;
      return true;
    }
  }
  return false;
}

// Recovering `dir` must fail as a divergence naming `lsn`.
void ExpectDivergenceAt(const TbfFramework& framework, const EventTrace& trace,
                        const std::string& dir, uint64_t lsn) {
  ReplayOptions resume = UncheckpointedOptions(dir);
  resume.recover = true;
  auto recovered = RunEventReplay(framework, trace, resume);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInternal);
  EXPECT_NE(recovered.status().message().find(
                "journal/state divergence at lsn " + std::to_string(lsn) +
                ":"),
            std::string::npos)
      << recovered.status().message();
}

TEST(RecoveryTest, RewrittenAssignedWorkerIsDivergenceAtItsLsn) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("forged_worker");
  ASSERT_TRUE(
      RunEventReplay(framework, trace, UncheckpointedOptions(dir)).ok());
  auto scan = ScanWalDir(dir, /*repair_torn_tail=*/false);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();

  // The untouched journal verifies end to end: every dispatch record is
  // re-produced by the loop.
  const std::string copy = FreshDir("forged_worker_copy");
  fs::copy(dir, copy,
           fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  ReplayOptions resume = UncheckpointedOptions(copy);
  resume.recover = true;
  auto clean = RunEventReplay(framework, trace, resume);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  uint64_t dispatch_records = 0;
  std::optional<uint64_t> target;
  for (const WalRecord& rec : scan->records) {
    if (rec.kind == WalRecordKind::kWorkerArrival ||
        rec.kind == WalRecordKind::kTaskArrival ||
        rec.kind == WalRecordKind::kWorkerDeparture) {
      ++dispatch_records;
    }
    if (rec.kind == WalRecordKind::kTaskArrival && rec.outcome.has_worker) {
      target = rec.lsn;  // the last assignment: deep into the run
    }
  }
  EXPECT_TRUE(clean->resumed);
  EXPECT_EQ(clean->recovered_events, dispatch_records);

  ASSERT_TRUE(target.has_value());
  ASSERT_TRUE(RewriteJournalRecord(dir, *target, [](WalRecord* rec) {
    rec->outcome.worker = "forged-worker";
  }));
  ExpectDivergenceAt(framework, trace, dir, *target);
}

TEST(RecoveryTest, RewrittenEpochBeginCursorIsDivergenceAtItsLsn) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("forged_cursor");
  ASSERT_TRUE(
      RunEventReplay(framework, trace, UncheckpointedOptions(dir)).ok());
  auto scan = ScanWalDir(dir, /*repair_torn_tail=*/false);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();

  std::vector<uint64_t> epoch_begins;
  for (const WalRecord& rec : scan->records) {
    if (rec.kind == WalRecordKind::kEpochBegin) epoch_begins.push_back(rec.lsn);
  }
  ASSERT_GE(epoch_begins.size(), 3u);
  const uint64_t target = epoch_begins[2];
  ASSERT_TRUE(RewriteJournalRecord(dir, target, [](WalRecord* rec) {
    ++rec->next_task_slot;
  }));
  ExpectDivergenceAt(framework, trace, dir, target);
}

TEST(RecoveryTest, RecoverWithADifferentSamplerIsDivergence) {
  // A small epsilon, so the two samplers' reports actually differ.
  TbfFramework framework = BuildFramework(/*epsilon=*/0.02);
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("other_sampler");
  ASSERT_TRUE(
      RunEventReplay(framework, trace, UncheckpointedOptions(dir)).ok());

  // The reports re-drawn under another sampler differ from the journaled
  // ones: recovery refuses instead of mixing two runs' reports.
  ReplayOptions resume = UncheckpointedOptions(dir);
  resume.recover = true;
  resume.sampler = SamplerKind::kOblivious;
  auto recovered = RunEventReplay(framework, trace, resume);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInternal);
  EXPECT_NE(recovered.status().message().find("journal/state divergence"),
            std::string::npos)
      << recovered.status().message();
}

// The file set of a directory: name -> bytes.
std::map<std::string, std::string> FilesIn(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    auto bytes = ReadFileToString(entry.path().string(), "file");
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    files[entry.path().filename().string()] = bytes.ok() ? *bytes : "";
  }
  return files;
}

TEST(RecoveryTest, RecoveringAFinishedDirectoryChangesNoFile) {
  // A finished run's last rotation leaves a segment holding only its
  // header. Each recovery continues that segment instead of adding
  // another, so five recoveries leave every file byte for byte as the
  // run left it, and each recovers the run field for field.
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("finished");
  auto run = RunEventReplay(framework, trace, DurableOptions(dir));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::map<std::string, std::string> files = FilesIn(dir);
  ASSERT_EQ(files.count(WalSegmentFileName(run->checkpoints_written)), 1u);

  ReplayOptions recover = DurableOptions(dir);
  recover.recover = true;
  for (int i = 0; i < 5; ++i) {
    auto recovered = RunEventReplay(framework, trace, recover);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(ReplayDifference(*recovered, *run), "") << "recovery " << i;
    EXPECT_TRUE(FilesIn(dir) == files) << "recovery " << i;
  }
}

TEST(RecoveryTest, AFailedCheckpointRetireSurfacesItsError) {
  // keep_checkpoints 1: the second checkpoint retires the first. A first
  // checkpoint that cannot be removed (here a non-empty directory swapped
  // in once the second is published) fails the run with that IOError.
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("retire");
  ReplayOptions options = DurableOptions(dir);
  options.keep_checkpoints = 1;
  const std::string first = dir + "/" + ReplayCheckpointFileName(1);
  const std::string second = dir + "/" + ReplayCheckpointFileName(2);
  SetFileOpHook([&](const FileOp& op) {
    if (op.kind == FileOp::Kind::kRename && op.target == second) {
      fs::remove(first);
      fs::create_directories(first + "/held");
    }
  });
  auto run = RunEventReplay(framework, trace, options);
  SetFileOpHook(nullptr);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIOError) << run.status();
  EXPECT_NE(run.status().message().find("cannot remove " + first),
            std::string::npos)
      << run.status();
}

// The durable file operations of `run`, each as "<kind> <file name>" ("."
// for the directory), in the order they happened.
std::vector<std::string> FileOpsOf(const std::function<void()>& run) {
  static const char* const kKinds[] = {"create", "append", "sync", "truncate",
                                       "rename", "remove", "syncdir"};
  std::vector<std::string> ops;
  SetFileOpHook([&ops](const FileOp& op) {
    const std::string path(op.kind == FileOp::Kind::kRename ? op.target
                                                            : op.path);
    ops.push_back(std::string(kKinds[static_cast<int>(op.kind)]) + " " +
                  (op.kind == FileOp::Kind::kSyncDir
                       ? "."
                       : fs::path(path).filename().string()));
  });
  run();
  SetFileOpHook(nullptr);
  return ops;
}

std::string Lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += "\n  \"" + line + "\",";
  return out;
}

// Seven epochs, a checkpoint after every second one, keep 2, and a
// group-commit journal that commits only at the checkpoint's barrier: the
// operations below are the checkpoint step's, in order. The seventh epoch
// is not checkpointed, so its records end the journal past the newest
// checkpoint.
ReplayOptions GoldenOptions(const std::string& dir) {
  ReplayOptions options = DurableOptions(dir);
  options.checkpoint_every_epochs = 2;
  options.wal_fsync = WalFsyncPolicy::GroupCommit(
      /*max_records=*/1 << 20, /*max_bytes=*/1 << 30,
      /*max_delay_seconds=*/1e9);
  return options;
}

EventTrace GoldenTrace() {
  SyntheticEventConfig config;
  config.base.num_workers = 20;
  config.base.num_tasks = 14;
  config.base.seed = 41;
  config.horizon_seconds = 420.0;
  config.departure_probability = 0.15;
  auto trace = GenerateEventTrace(config);
  EXPECT_TRUE(trace.ok());
  return std::move(trace).MoveValueUnsafe();
}

TEST(RecoveryTest, FreshGroupCommitRunMakesTheGoldenFileOperations) {
  TbfFramework framework = BuildFramework();
  const EventTrace trace = GoldenTrace();
  const std::string dir = FreshDir("golden_ops");
  Result<ReplayReport> run = Status::Internal("unset");
  const std::vector<std::string> ops = FileOpsOf(
      [&] { run = RunEventReplay(framework, trace, GoldenOptions(dir)); });
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->epochs, 7u);
  const std::vector<std::string> want = {
      // Start: the first segment and the outcome log, each created
      // durably.
      "create wal-00000000.seg", "append wal-00000000.seg",
      "sync wal-00000000.seg", "syncdir .",
      "create outcomes", "append outcomes", "sync outcomes", "syncdir .",
      // Checkpoint after epoch 2: journal barrier, outcome rows, the
      // checkpoint's atomic write, rotation, compaction of segment 0.
      "append wal-00000000.seg", "sync wal-00000000.seg",
      "append outcomes", "sync outcomes",
      "create ckpt-00000002.ckpt.tmp", "append ckpt-00000002.ckpt.tmp",
      "sync ckpt-00000002.ckpt.tmp", "rename ckpt-00000002.ckpt", "syncdir .",
      "create wal-00000001.seg", "append wal-00000001.seg",
      "sync wal-00000001.seg", "syncdir .",
      "remove wal-00000000.seg", "syncdir .",
      // After epoch 4: nothing to retire or compact yet.
      "append wal-00000001.seg", "sync wal-00000001.seg",
      "append outcomes", "sync outcomes",
      "create ckpt-00000004.ckpt.tmp", "append ckpt-00000004.ckpt.tmp",
      "sync ckpt-00000004.ckpt.tmp", "rename ckpt-00000004.ckpt", "syncdir .",
      "create wal-00000002.seg", "append wal-00000002.seg",
      "sync wal-00000002.seg", "syncdir .",
      // After epoch 6: checkpoint 2 retired, segment 1 compacted.
      "append wal-00000002.seg", "sync wal-00000002.seg",
      "append outcomes", "sync outcomes",
      "create ckpt-00000006.ckpt.tmp", "append ckpt-00000006.ckpt.tmp",
      "sync ckpt-00000006.ckpt.tmp", "rename ckpt-00000006.ckpt", "syncdir .",
      "remove ckpt-00000002.ckpt",
      "create wal-00000003.seg", "append wal-00000003.seg",
      "sync wal-00000003.seg", "syncdir .",
      "remove wal-00000001.seg", "syncdir .",
      // Close: the seventh epoch's records, committed.
      "append wal-00000003.seg", "sync wal-00000003.seg",
  };
  EXPECT_TRUE(ops == want) << "the run made:" << Lines(ops);
}

TEST(RecoveryTest, ConflictingPersistenceOptionsAreRefusedBeforeAnyFile) {
  TbfFramework framework = BuildFramework();
  const EventTrace trace = GoldenTrace();
  const std::string dir = FreshDir("conflicting_options");
  const auto with = [&](const std::function<void(ReplayOptions&)>& edit) {
    ReplayOptions options = DurableOptions(dir + "/run");
    edit(options);
    return options;
  };
  const std::vector<ReplayOptions> refused = {
      with([](ReplayOptions& o) { o.checkpoint_every_epochs = 0; }),
      with([](ReplayOptions& o) {
        o.durable_dir.clear();
        o.resume_from_checkpoint = true;
      }),
      with([&](ReplayOptions& o) { o.checkpoint_path = dir + "/ckpt"; }),
      with([](ReplayOptions& o) {
        o.parallel_dispatch = true;
        o.num_shards = 2;
      }),
      with([](ReplayOptions& o) { o.keep_checkpoints = 0; }),
      with([](ReplayOptions& o) {
        o.durable_dir.clear();
        o.recover = true;
      }),
  };
  for (size_t i = 0; i < refused.size(); ++i) {
    Result<ReplayReport> run = Status::Internal("unset");
    const std::vector<std::string> ops = FileOpsOf(
        [&] { run = RunEventReplay(framework, trace, refused[i]); });
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << i;
    EXPECT_TRUE(ops.empty()) << i << ":" << Lines(ops);
  }
  EXPECT_FALSE(fs::exists(dir + "/run"));
}

TEST(RecoveryTest, AFreshRunRefusesADirectoryThatHoldsARun) {
  // A fresh run in a directory that holds a finished run would append to
  // its journal and start its outcome log anew; killed before its first
  // checkpoint, it would leave a journal that begins past anything the
  // surviving checkpoints can cover. It is refused before any file
  // operation instead, and the finished run still recovers.
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("used");
  const ReplayOptions options = DurableOptions(dir);
  auto finished = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  const std::map<std::string, std::string> files = FilesIn(dir);

  const auto expect_refused = [&](const ReplayOptions& fresh) {
    Result<ReplayReport> run = Status::Internal("unset");
    fault::FaultPlan plan;
    fault::FaultSpec kill;
    kill.site = "replay.epoch";
    kill.kind = fault::FaultKind::kFail;
    kill.code = StatusCode::kAborted;
    kill.after = 1;
    kill.count = 1;
    plan.faults.push_back(kill);
    fault::ScopedFaultPlan armed(plan);
    const std::vector<std::string> ops =
        FileOpsOf([&] { run = RunEventReplay(framework, trace, fresh); });
    EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition)
        << fresh.durable_dir << ": " << run.status();
    EXPECT_NE(run.status().message().find("recover"), std::string::npos)
        << run.status();
    EXPECT_TRUE(ops.empty()) << fresh.durable_dir << ":" << Lines(ops);
  };
  ReplayOptions again = options;
  again.checkpoint_every_epochs = 3;
  expect_refused(again);
  EXPECT_TRUE(FilesIn(dir) == files);
  ReplayOptions recover = options;
  recover.recover = true;
  auto recovered = RunEventReplay(framework, trace, recover);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(ReplayDifference(*recovered, *finished), "");

  // Any one journal segment, checkpoint or outcome log holds a run.
  for (const std::string prefix : {"wal-", "ckpt-", "outcomes"}) {
    const auto file =
        std::find_if(files.begin(), files.end(), [&](const auto& entry) {
          return entry.first.rfind(prefix, 0) == 0;
        });
    ASSERT_NE(file, files.end()) << prefix;
    ReplayOptions fresh = options;
    fresh.durable_dir = FreshDir("used_" + prefix);
    fs::copy_file(dir + "/" + file->first, fresh.durable_dir + "/" + file->first);
    expect_refused(fresh);
    EXPECT_EQ(FilesIn(fresh.durable_dir).size(), 1u) << prefix;
  }

  // A stray tmp file is not a run, and a missing directory is created.
  const std::string stray = FreshDir("used_stray_tmp");
  std::ofstream(stray + "/" + ReplayCheckpointFileName(3) + ".tmp") << "torn";
  for (const std::string& fresh_dir : {stray, stray + "/missing"}) {
    ReplayOptions fresh = options;
    fresh.durable_dir = fresh_dir;
    auto run = RunEventReplay(framework, trace, fresh);
    ASSERT_TRUE(run.ok()) << fresh_dir << ": " << run.status();
    EXPECT_EQ(ReplayDifference(*run, *finished), "") << fresh_dir;
  }
}

TEST(RecoveryTest, AForeignJournalIsRefusedBeforeAnythingIsCut) {
  // The journal's identity is checked once, by the writer that continues
  // it: a directory whose checkpoints and outcome log are this run's but
  // whose journal is another run's is refused, and no file in it changes.
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("foreign_journal");
  const std::string other_dir = FreshDir("foreign_journal_other");
  const ReplayOptions options = DurableOptions(dir);
  ASSERT_TRUE(RunEventReplay(framework, trace, options).ok());
  ReplayOptions other = DurableOptions(other_dir);
  other.server_seed = 999;  // the same journal positions, another identity
  ASSERT_TRUE(RunEventReplay(framework, trace, other).ok());
  for (const auto& [name, bytes] : FilesIn(dir)) {
    if (name.rfind("wal-", 0) == 0) fs::remove(dir + "/" + name);
  }
  for (const auto& [name, bytes] : FilesIn(other_dir)) {
    if (name.rfind("wal-", 0) == 0) {
      fs::copy_file(other_dir + "/" + name, dir + "/" + name);
    }
  }
  const std::map<std::string, std::string> files = FilesIn(dir);

  ReplayOptions recover = options;
  recover.recover = true;
  auto recovered = RunEventReplay(framework, trace, recover);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition)
      << recovered.status();
  EXPECT_NE(recovered.status().message().find("different run"),
            std::string::npos)
      << recovered.status();
  EXPECT_TRUE(FilesIn(dir) == files);
}

TEST(RecoveryTest, RecoverySyncsTheJournalItReadBeforeWritingAfterIt) {
  // The recovery re-runs the seventh epoch from the newest checkpoint. The
  // records it verifies may be only in the page cache (a process crash
  // before their fsync): it syncs their segment before it opens the next
  // one, so a later power loss cannot drop them from under it.
  TbfFramework framework = BuildFramework();
  const EventTrace trace = GoldenTrace();
  const std::string dir = FreshDir("golden_recovery_ops");
  auto run = RunEventReplay(framework, trace, GoldenOptions(dir));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ReplayOptions recover = GoldenOptions(dir);
  recover.recover = true;
  Result<ReplayReport> recovered = Status::Internal("unset");
  const std::vector<std::string> ops = FileOpsOf(
      [&] { recovered = RunEventReplay(framework, trace, recover); });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(recovered->recovered_events, 0u);
  EXPECT_EQ(ReplayDifference(*recovered, *run), "");
  const std::vector<std::string> want = {
      "sync wal-00000003.seg",
      "create wal-00000004.seg", "append wal-00000004.seg",
      "sync wal-00000004.seg", "syncdir .",
      "truncate outcomes",
  };
  EXPECT_TRUE(ops == want) << "the recovery made:" << Lines(ops);
}

#ifndef TBF_FAULTS_DISABLED

TEST(RecoveryTest, TransientCheckpointReadIsRetriedOnce) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("retry");
  auto durable = RunEventReplay(framework, trace, DurableOptions(dir));
  ASSERT_TRUE(durable.ok());

  fault::FaultPlan plan;
  fault::FaultSpec flake;
  flake.site = "recovery.scan";
  flake.kind = fault::FaultKind::kFail;
  flake.code = StatusCode::kIOError;
  flake.after = 0;
  flake.count = 1;  // first read attempt only: the retry succeeds
  plan.faults.push_back(flake);
  fault::ScopedFaultPlan armed(plan);
  ASSERT_TRUE(armed.armed());

  auto recovered = RecoverReplayDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->io_retries, 1u);
  EXPECT_EQ(recovered->checkpoints_rejected, 0u);
  ASSERT_TRUE(recovered->checkpoint.has_value());
}

TEST(RecoveryTest, PersistentIoErrorRejectsOnlyThatCheckpoint) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("persistent_io");
  auto durable = RunEventReplay(framework, trace, DurableOptions(dir));
  ASSERT_TRUE(durable.ok());
  auto before = RecoverReplayDir(dir);
  ASSERT_TRUE(before.ok());
  ASSERT_GE(before->retained.size(), 2u);

  fault::FaultPlan plan;
  fault::FaultSpec dead;
  dead.site = "recovery.scan";
  dead.kind = fault::FaultKind::kFail;
  dead.code = StatusCode::kIOError;
  dead.after = 0;
  dead.count = 2;  // both attempts on the oldest checkpoint fail
  plan.faults.push_back(dead);
  fault::ScopedFaultPlan armed(plan);
  ASSERT_TRUE(armed.armed());

  auto recovered = RecoverReplayDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->checkpoints_rejected, 1u);
  EXPECT_EQ(recovered->io_retries, 1u);
  // The newest checkpoint still restores.
  EXPECT_EQ(recovered->checkpoint_path, before->retained.back().path);
}

TEST(RecoveryTest, ParseErrorsFailFastWithoutRetry) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("fail_fast");
  auto durable = RunEventReplay(framework, trace, DurableOptions(dir));
  ASSERT_TRUE(durable.ok());

  fault::FaultPlan plan;
  fault::FaultSpec bad;
  bad.site = "recovery.scan";
  bad.kind = fault::FaultKind::kFail;
  bad.code = StatusCode::kInvalidArgument;  // "corruption", not transient
  bad.after = 0;
  bad.count = 1;
  plan.faults.push_back(bad);
  fault::ScopedFaultPlan armed(plan);
  ASSERT_TRUE(armed.armed());

  auto recovered = RecoverReplayDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->checkpoints_rejected, 1u);
  EXPECT_EQ(recovered->io_retries, 0u);  // no retry on corruption
}

TEST(RecoveryTest, OutcomeLogReadErrorsCutNothing) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("log_io");
  const ReplayOptions options = DurableOptions(dir);
  auto durable = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  auto before = RecoverReplayDir(dir);
  ASSERT_TRUE(before.ok());
  const uint64_t covered = fs::file_size(OutcomeLogPath(dir));
  auto log_bytes = ReadFileToString(OutcomeLogPath(dir), "outcome log");
  ASSERT_TRUE(log_bytes.ok());
  ReplayOptions recover = options;
  recover.recover = true;

  const auto failing = [](const std::string& site, uint64_t count) {
    fault::FaultPlan plan;
    fault::FaultSpec spec;
    spec.site = site;
    spec.kind = fault::FaultKind::kFail;
    spec.code = StatusCode::kIOError;
    spec.count = count;
    plan.faults.push_back(spec);
    return plan;
  };
  {
    // A transient log read is retried once, like a checkpoint read.
    fault::ScopedFaultPlan armed(failing("recovery.outcome_log", 1));
    ASSERT_TRUE(armed.armed());
    auto recovered = RecoverReplayDir(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->io_retries, 1u);
    EXPECT_EQ(recovered->checkpoints_rejected, 0u);
    EXPECT_EQ(recovered->checkpoint_path, before->checkpoint_path);
  }
  {
    // A log that stays unreadable fails recovery: every checkpoint shares
    // it, so no fallback helps, and no checkpoint is rejected for it. The
    // failed recovery still records its attempt and its one retry.
    fault::ScopedFaultPlan armed(failing("recovery.outcome_log", 0));
    ASSERT_TRUE(armed.armed());
    obs::MetricRegistry registry;
    auto scan = RecoverReplayDir(dir, &registry);
    ASSERT_FALSE(scan.ok());
    EXPECT_EQ(scan.status().code(), StatusCode::kIOError);
    EXPECT_EQ(fault::FaultInjector::Global().hits("recovery.outcome_log"), 2u);
    const obs::MetricsSnapshot metrics = registry.Snapshot();
    EXPECT_EQ(metrics.CounterValue("tbf_recovery_attempts_total"), 1.0);
    EXPECT_EQ(metrics.CounterValue("tbf_recovery_io_retries_total"), 1.0);
    EXPECT_EQ(metrics.CounterValue("tbf_recovery_checkpoints_rejected_total"),
              0.0);
    auto recovered = RunEventReplay(framework, trace, recover);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kIOError);
    EXPECT_EQ(fs::file_size(OutcomeLogPath(dir)), covered);
  }
  {
    // Only IOErrors are retried. The InvalidArgument fails the first
    // attempt only, so a retry would succeed: recovery failing, with one
    // hit at the site, shows none ran (io_retries == 0). Nothing is cut.
    fault::FaultPlan plan = failing("recovery.outcome_log", 1);
    plan.faults[0].code = StatusCode::kInvalidArgument;
    {
      fault::ScopedFaultPlan armed(plan);
      ASSERT_TRUE(armed.armed());
      auto scan = RecoverReplayDir(dir);
      ASSERT_FALSE(scan.ok());
      EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(
          fault::FaultInjector::Global().hits("recovery.outcome_log"), 1u);
    }
    {
      fault::ScopedFaultPlan armed(plan);
      auto recovered = RunEventReplay(framework, trace, recover);
      ASSERT_FALSE(recovered.ok());
      EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
    }
    auto after_bytes = ReadFileToString(OutcomeLogPath(dir), "outcome log");
    ASSERT_TRUE(after_bytes.ok());
    EXPECT_EQ(*after_bytes, *log_bytes);
  }
  {
    // Every checkpoint read fails: the compacted journal leaves a gap and
    // recovery fails before anything touches the log.
    fault::ScopedFaultPlan armed(failing("recovery.scan", 0));
    ASSERT_TRUE(armed.armed());
    auto recovered = RunEventReplay(framework, trace, recover);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(fs::file_size(OutcomeLogPath(dir)), covered);
  }

  // Once the faults clear, every checkpoint and its log prefix recover.
  auto after = RecoverReplayDir(dir);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->checkpoints_rejected, 0u);
  EXPECT_EQ(after->retained.size(), before->retained.size());
  EXPECT_EQ(after->checkpoint_path, before->checkpoint_path);
  auto recovered = RunEventReplay(framework, trace, recover);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameHistory(*recovered, *durable);
  ExpectServerStateEqual(*recovered->final_state, *durable->final_state);
  EXPECT_EQ(fs::file_size(OutcomeLogPath(dir)), covered);
}

TEST(RecoveryTest, CrashMidRunThenRecoverMatchesUninterrupted) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  const std::string dir = FreshDir("crash_smoke");

  ReplayOptions options = DurableOptions(dir);
  options.wal_fsync = WalFsyncPolicy::GroupCommit(8, 1 << 16, 0.01);
  auto baseline = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Crash partway through a fresh run of the same trace.
  const std::string crash_dir = FreshDir("crash_smoke_run");
  {
    fault::FaultPlan plan;
    fault::FaultSpec kill;
    kill.site = "wal.append";
    kill.kind = fault::FaultKind::kFail;
    kill.code = StatusCode::kAborted;
    kill.after = 120;  // an arbitrary mid-run lsn
    kill.count = 1;
    plan.faults.push_back(kill);
    fault::ScopedFaultPlan armed(plan);
    ReplayOptions crash = options;
    crash.durable_dir = crash_dir;
    auto died = RunEventReplay(framework, trace, crash);
    ASSERT_FALSE(died.ok());
    EXPECT_EQ(died.status().code(), StatusCode::kAborted);
  }

  // Recover and finish: field-for-field identical end state.
  ReplayOptions resume = options;
  resume.durable_dir = crash_dir;
  resume.recover = true;
  auto recovered = RunEventReplay(framework, trace, resume);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(recovered->final_state.has_value());
  ExpectServerStateEqual(*recovered->final_state, *baseline->final_state);
  EXPECT_EQ(recovered->assigned, baseline->assigned);
  EXPECT_EQ(recovered->denied, baseline->denied);
}

// The composed-budget audit on the shipped path: across epochs, a live
// republish and a crash + recover, the ledger's spend is the declared
// epsilon times the admitted reports, and it is also what the durable
// directory records: the oldest retained checkpoint's ledger total plus
// the epsilon_charged of every journal record past that checkpoint (the
// whole journal when no checkpoint was written). The epoch cap alone is
// set, so no per-user lifetime table exists to audit against.
TEST(RecoveryTest, LedgerSpendIsTheComposedEpsilonAndTheJournaledCharges) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(120, 100, 9);
  auto copy = ParseHstSnapshot(SerializeHstSnapshot(framework.tree()));
  ASSERT_TRUE(copy.ok());
  const std::vector<ReplayRepublish> schedule = {
      {2, std::make_shared<const CompleteHst>(
              std::move(copy).MoveValueUnsafe())}};
  for (const bool checkpointed : {false, true}) {
    SCOPED_TRACE(checkpointed ? "checkpointed" : "journal only");
    const std::string dir =
        FreshDir(checkpointed ? "audit_checkpointed" : "audit_journal");
    ReplayOptions options = DurableOptions(dir);
    options.lifetime_budget.reset();
    options.republishes = schedule;
    options.wal_fsync = WalFsyncPolicy::GroupCommit(8, 1 << 16, 0.01);
    options.checkpoint_every_epochs = checkpointed ? 2 : 1 << 20;
    {
      fault::FaultPlan plan;
      fault::FaultSpec kill;
      kill.site = "wal.append";
      kill.kind = fault::FaultKind::kFail;
      kill.code = StatusCode::kAborted;
      kill.after = 200;
      kill.count = 1;
      plan.faults.push_back(kill);
      fault::ScopedFaultPlan armed(plan);
      auto died = RunEventReplay(framework, trace, options);
      ASSERT_FALSE(died.ok());
    }
    options.recover = true;
    auto recovered = RunEventReplay(framework, trace, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_TRUE(recovered->resumed);
    ASSERT_EQ(recovered->republishes, 1u);
    ASSERT_GT(recovered->epochs, 4u);

    const double spent = recovered->epsilon_spent;
    const uint64_t admitted =
        recovered->registered + recovered->assigned + recovered->unassigned;
    ASSERT_GT(admitted, 0u);
    EXPECT_EQ(recovered->final_state->ledger->totals.charges, admitted);
    EXPECT_NEAR(spent, framework.epsilon() * static_cast<double>(admitted),
                1e-9 * spent);

    auto post = RecoverReplayDir(dir);
    ASSERT_TRUE(post.ok()) << post.status().ToString();
    double covered = 0.0;  // spend the oldest retained checkpoint covers
    uint64_t from_lsn = 0;
    if (checkpointed) {
      ASSERT_FALSE(post->retained.empty());
      auto oldest = ReadReplayCheckpointFile(post->retained.front().path);
      ASSERT_TRUE(oldest.ok());
      covered = oldest->server.ledger->totals.epsilon_spent;
      from_lsn = oldest->wal_next_lsn;
      EXPECT_GT(covered, 0.0);
    } else {
      EXPECT_TRUE(post->retained.empty());
      EXPECT_EQ(post->wal.records.front().lsn, 0u);
    }
    ASSERT_LE(post->wal.records.front().lsn, from_lsn);
    double journaled = 0.0;
    for (const WalRecord& rec : post->wal.records) {
      if (rec.lsn >= from_lsn) journaled += rec.outcome.epsilon_charged;
    }
    EXPECT_NEAR(covered + journaled, spent, 1e-9 * spent);
  }
}

// The framework tree's points and leaves at `factor` times its scale: the
// published shape, but every reported tree distance scales with it.
std::shared_ptr<const CompleteHst> ScaledTree(const CompleteHst& tree,
                                              double factor) {
  std::vector<LeafCode> codes;
  for (int p = 0; p < tree.num_points(); ++p) {
    codes.push_back(tree.leaf_code_of_point(p));
  }
  auto scaled = CompleteHst::FromParts(tree.depth(), tree.arity(),
                                       tree.scale() * factor, tree.points(),
                                       std::move(codes));
  EXPECT_TRUE(scaled.ok()) << scaled.status();
  return std::make_shared<const CompleteHst>(
      std::move(scaled).MoveValueUnsafe());
}

// A recovery whose checkpoint lies between two republishes restores the
// engine onto the first one's tree without republishing again: it
// re-produces the uninterrupted run's history (tree distances differ on
// every tree of the schedule), and its tbf_republish_* counters and
// tree-epoch gauge equal the uninterrupted run's.
TEST(RecoveryTest, RestoredRepublishesAreCountedOnce) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(120, 100, 9);
  const std::vector<ReplayRepublish> schedule = {
      {1, ScaledTree(framework.tree(), 2.0)},
      {4, ScaledTree(framework.tree(), 3.0)}};
  ReplayOptions options = DurableOptions(FreshDir("republish_reference"));
  options.republishes = schedule;
  options.keep_checkpoints = 100;  // no compaction: the journal stays whole
  auto reference = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->republishes, 2u);
  auto journal = ScanWalDir(options.durable_dir, /*repair_torn_tail=*/false);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  // The kill lands halfway between the two republishes, so the recovered
  // run dispatches on the restored tree before the second one.
  uint64_t republish_lsn[2] = {0, 0};
  for (const WalRecord& rec : journal->records) {
    if (rec.kind == WalRecordKind::kRepublish) {
      republish_lsn[rec.tree_epoch - 1] = rec.lsn;
    }
  }
  ASSERT_GT(republish_lsn[0], 0u);
  ASSERT_GT(republish_lsn[1], republish_lsn[0]);

  options.durable_dir = FreshDir("republish_recovered");
  {
    fault::FaultPlan plan;
    fault::FaultSpec kill;
    kill.site = "wal.append";
    kill.kind = fault::FaultKind::kFail;
    kill.code = StatusCode::kAborted;
    kill.after = (republish_lsn[0] + republish_lsn[1]) / 2;
    kill.count = 1;
    plan.faults.push_back(kill);
    fault::ScopedFaultPlan armed(plan);
    ASSERT_FALSE(RunEventReplay(framework, trace, options).ok());
  }
  auto scan = RecoverReplayDir(options.durable_dir);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_TRUE(scan->checkpoint.has_value());
  ASSERT_EQ(scan->checkpoint->server.tree_epoch, 1u);

  options.recover = true;
  auto recovered = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(recovered->resumed);
  EXPECT_EQ(recovered->republishes, 2u);
  ExpectSameHistory(*recovered, *reference);
  for (const char* name :
       {"tbf_republish_started_total", "tbf_republish_rekeyed_workers_total",
        "tbf_republish_swapped_shards_total", "tbf_republish_aborted_total"}) {
    EXPECT_EQ(recovered->metrics.CounterValue(name),
              reference->metrics.CounterValue(name))
        << name;
  }
  EXPECT_EQ(recovered->metrics.CounterValue("tbf_republish_started_total"),
            2.0);
  const auto* want = reference->metrics.FindGauge("tbf_serve_tree_epoch");
  const auto* got = recovered->metrics.FindGauge("tbf_serve_tree_epoch");
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->value, want->value);
  EXPECT_EQ(got->value, 2);
}

#endif  // TBF_FAULTS_DISABLED

}  // namespace
}  // namespace tbf
