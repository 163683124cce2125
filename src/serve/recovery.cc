#include "serve/recovery.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <utility>

#include "common/atomic_file.h"
#include "common/fault.h"

namespace tbf {

namespace fs = std::filesystem;

namespace {

// Reads per file (1 initial + 1 retry) and the sleep between them. Small:
// the transient faults this guards against (NFS hiccup, overloaded disk)
// clear in milliseconds.
constexpr int kReadAttempts = 2;
constexpr std::chrono::milliseconds kRetryBackoff{5};

/// Runs `read` with the transient-IO retry: an IOError is retried up to
/// kReadAttempts with backoff, anything else (corruption, schema) is
/// returned at once because no retry can fix it. The fault
/// site `site` fires once per attempt, so a seeded plan with count=1
/// exercises exactly the retry path.
template <typename T, typename Read>
Result<T> ReadWithRetry([[maybe_unused]] const char* site,
                        uint64_t* io_retries, Read read) {
  Status last = Status::OK();
  for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
    Status injected = TBF_FAULT_INJECT(site);
    Result<T> result = injected.ok() ? read() : Result<T>(injected);
    if (result.ok() || result.status().code() != StatusCode::kIOError) {
      return result;
    }
    last = result.status();
    if (attempt + 1 < kReadAttempts) {
      ++*io_retries;
      std::this_thread::sleep_for(kRetryBackoff);
    }
  }
  return last;
}

// RecoverReplayDir's scan, filling `*run` as it goes so that a failed scan
// still reports the attempts it made.
Status ScanReplayDir(const std::string& dir, RecoveredRun* run) {
  // Surviving checkpoint files, ordinal ascending.
  TBF_ASSIGN_OR_RETURN(const auto candidates,
                       ListNumberedFiles(dir, ReplayCheckpointFileName));

  // Read every candidate (retention + compaction need the full valid list),
  // then their outcome-log prefixes in one walk of the log. A checkpoint is
  // valid only together with the prefix it covers, and a log of another run
  // is never combined with it; the newest valid one becomes the restore
  // point. Nothing is cut here.
  std::vector<ReplayCheckpoint> read;
  std::vector<RetainedCheckpoint> files;  // one per checkpoint read
  bool covers_log = false;
  for (const auto& [ordinal, path] : candidates) {
    Result<ReplayCheckpoint> checkpoint = ReadWithRetry<ReplayCheckpoint>(
        "recovery.scan", &run->io_retries,
        [&] { return ReadReplayCheckpointFile(path); });
    if (!checkpoint.ok()) {
      ++run->checkpoints_rejected;
      continue;
    }
    files.push_back(RetainedCheckpoint{ordinal, path, checkpoint->wal_next_lsn});
    covers_log |= checkpoint->outcome_log_bytes > 0;
    read.push_back(std::move(*checkpoint));
  }
  std::string log;  // not read when no checkpoint covers any of it
  if (covers_log) {
    // A log that does not exist reads as empty, so every checkpoint
    // covering log bytes is rejected as cut short. A read that still
    // fails fails recovery: every checkpoint shares the log, so no
    // fallback helps.
    const std::string log_path = OutcomeLogPath(dir);
    TBF_ASSIGN_OR_RETURN(
        log, ReadWithRetry<std::string>(
                 "recovery.outcome_log", &run->io_retries,
                 [&]() -> Result<std::string> {
                   std::error_code missing;
                   if (!fs::exists(log_path, missing) && !missing) {
                     return std::string();
                   }
                   return ReadFileToString(log_path, "outcome log");
                 }));
  }
  const std::vector<Status> rows = ParseOutcomeRows(log, read);
  for (size_t i = 0; i < read.size(); ++i) {
    if (rows[i].code() == StatusCode::kInvalidArgument) {
      ++run->checkpoints_rejected;  // the prefix is cut short or damaged
      continue;
    }
    if (rows[i].code() == StatusCode::kFailedPrecondition) {
      return Status::FailedPrecondition("recovery: checkpoint " +
                                        files[i].path +
                                        " and the outcome log in " + dir +
                                        " belong to different runs");
    }
    TBF_RETURN_NOT_OK(rows[i]);
    run->retained.push_back(files[i]);
    run->checkpoint = std::move(read[i]);  // the last one holds the rows
    run->checkpoint_path = files[i].path;
  }

  // Scan + repair the journal.
  TBF_ASSIGN_OR_RETURN(run->wal, ScanWalDir(dir, /*repair_torn_tail=*/true));

  // Locate the replay suffix. LSNs are contiguous, so coverage maps to an
  // index directly — and any gap is detectable, never silently skipped.
  const uint64_t cover =
      run->checkpoint.has_value() ? run->checkpoint->wal_next_lsn : 0;
  if (run->wal.records.empty()) {
    if (cover > 0) {
      return Status::FailedPrecondition(
          "recovery: checkpoint " + run->checkpoint_path + " covers journal up "
          "to lsn " + std::to_string(cover) + " but no journal survived in " +
          dir);
    }
    run->suffix_begin = 0;
  } else {
    const uint64_t first = run->wal.records.front().lsn;
    if (cover < first) {
      return Status::FailedPrecondition(
          "recovery: journal in " + dir + " begins at lsn " +
          std::to_string(first) + " but the newest valid checkpoint covers "
          "only up to lsn " + std::to_string(cover) +
          " — events in the gap are unrecoverable");
    }
    if (cover > run->wal.next_lsn) {
      return Status::Internal(
          "recovery: checkpoint " + run->checkpoint_path + " claims journal "
          "coverage up to lsn " + std::to_string(cover) +
          " but the journal ends at lsn " + std::to_string(run->wal.next_lsn) +
          " — checkpoints must be written after a journal sync");
    }
    run->suffix_begin = static_cast<size_t>(cover - first);
  }

  return Status::OK();
}

// A fresh run starts only in a directory that holds no run: appending to
// another run's journal and starting its outcome log anew would leave a
// directory whose checkpoints no recovery can use. Stray `.tmp` files are
// not a run.
Status RefuseUsedDir(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return Status::OK();
  TBF_ASSIGN_OR_RETURN(const auto segments,
                       ListNumberedFiles(dir, WalSegmentFileName));
  TBF_ASSIGN_OR_RETURN(const auto checkpoints,
                       ListNumberedFiles(dir, ReplayCheckpointFileName));
  if (segments.empty() && checkpoints.empty() &&
      !fs::exists(OutcomeLogPath(dir), ec)) {
    return Status::OK();
  }
  return Status::FailedPrecondition(
      "durable_dir " + dir + " already holds a run: set recover to continue "
      "it, or start in an empty directory");
}

// Refuses a restore point of another run (`run` is this run's identity,
// `trace_events` its trace's length) or whose cursor disagrees with its rows.
Status CheckRestorePoint(const ReplayCheckpoint& ckpt, const WalIdentity& run,
                         size_t trace_events) {
  if (!(IdentityOf(ckpt) == run)) {
    return Status::FailedPrecondition(
        "checkpoint belongs to a different run (trace fingerprint, shards, "
        "epoch length or seeds differ)");
  }
  if (ckpt.next_event > trace_events) {
    return Status::InvalidArgument(
        "checkpoint cursor out of range for this trace");
  }
  // Every writer logs exactly the first next_task_slot task outcomes; any
  // other slot would index past the restored rows.
  if (ckpt.next_task_slot < 0 ||
      static_cast<uint64_t>(ckpt.next_task_slot) !=
          ckpt.task_outcomes.size()) {
    return Status::InvalidArgument(
        "checkpoint next_task_slot " + std::to_string(ckpt.next_task_slot) +
        " disagrees with its " + std::to_string(ckpt.task_outcomes.size()) +
        " task rows");
  }
  if (ckpt.epoch_rows != ckpt.per_epoch.size() ||
      ckpt.quarantine_rows != ckpt.quarantined_events.size()) {
    return Status::InvalidArgument(
        "checkpoint cursor counts " + std::to_string(ckpt.epoch_rows) +
        " epoch and " + std::to_string(ckpt.quarantine_rows) +
        " quarantine rows, its outcome log holds " +
        std::to_string(ckpt.per_epoch.size()) + " and " +
        std::to_string(ckpt.quarantined_events.size()));
  }
  return Status::OK();
}

}  // namespace

std::string OutcomeLogPath(const std::string& dir) {
  return dir + "/outcomes";
}

std::string ReplayCheckpointFileName(uint64_t ordinal) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%08llu.ckpt",
                static_cast<unsigned long long>(ordinal));
  return buf;
}

Result<RecoveredRun> RecoverReplayDir(const std::string& dir,
                                      obs::MetricRegistry* metrics) {
  RecoveredRun run;
  const Status scanned = ScanReplayDir(dir, &run);
  if (metrics != nullptr) {
    metrics->FindOrCreateCounter("tbf_recovery_attempts_total")->Add(1);
    metrics->FindOrCreateCounter("tbf_recovery_checkpoints_rejected_total")
        ->Add(run.checkpoints_rejected);
    metrics->FindOrCreateCounter("tbf_recovery_io_retries_total")
        ->Add(run.io_retries);
    metrics->FindOrCreateCounter("tbf_wal_truncated_records_total")
        ->Add(run.wal.truncated_records);
  }
  TBF_RETURN_NOT_OK(scanned);
  return run;
}

// ---- ReplayStore ---------------------------------------------------------

ReplayStore::ReplayStore(const ReplayOptions& options, const EventTrace& trace,
                         obs::MetricRegistry* metrics, ReplayReport* report)
    : options_(&options),
      trace_events_(trace.events.size()),
      metrics_(metrics),
      report_(report),
      checkpoints_metric_(
          metrics->FindOrCreateCounter("tbf_robustness_checkpoints_total")) {
  // The history rows' one home: the outcome log next to the checkpoints.
  if (!options.durable_dir.empty()) {
    outcome_log_path_ = OutcomeLogPath(options.durable_dir);
  } else if (!options.checkpoint_path.empty()) {
    outcome_log_path_ = options.checkpoint_path + ".outcomes";
  }
  if (outcome_log_path_.empty()) return;
  blank_.trace_fingerprint = FingerprintEventTrace(trace);
  blank_.num_shards = options.num_shards;
  blank_.epoch_seconds = options.epoch_seconds;
  blank_.server_seed = options.server_seed;
  blank_.obfuscation_seed = options.obfuscation_seed;
}

Result<ReplayStore> ReplayStore::Create(const ReplayOptions& options,
                                        const EventTrace& trace,
                                        obs::MetricRegistry* metrics,
                                        ReplayReport* report) {
  const bool durable = !options.durable_dir.empty();
  if ((!options.checkpoint_path.empty() || durable) &&
      options.checkpoint_every_epochs < 1) {
    return Status::InvalidArgument("checkpoint_every_epochs must be >= 1");
  }
  if (options.resume_from_checkpoint && options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "resume_from_checkpoint requires checkpoint_path");
  }
  if (durable && !options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "durable_dir and checkpoint_path are mutually exclusive (the "
        "durable directory owns its own ordinal checkpoints)");
  }
  if (durable && options.parallel_dispatch && options.num_shards > 1) {
    return Status::InvalidArgument(
        "durable_dir requires sequential dispatch: the journal is an "
        "ordered log and parallel lane interleaving is not replayable");
  }
  if (durable && options.keep_checkpoints < 1) {
    return Status::InvalidArgument("keep_checkpoints must be >= 1");
  }
  if (options.recover && !durable) {
    return Status::InvalidArgument("recover requires durable_dir");
  }
  return ReplayStore(options, trace, metrics, report);
}

Status ReplayStore::Open(
    const std::function<Status(ReplayCheckpoint&)>& restore) {
  const std::string& dir = options_->durable_dir;
  std::optional<ReplayCheckpoint> restored;
  WalScan journal;  // what the writer continues: a fresh run's is empty
  if (options_->resume_from_checkpoint) {
    TBF_ASSIGN_OR_RETURN(restored,
                         ReadReplayCheckpointFile(options_->checkpoint_path));
    std::string log;  // not read when the checkpoint covers none of it
    if (restored->outcome_log_bytes > 0) {
      TBF_ASSIGN_OR_RETURN(log,
                           ReadFileToString(outcome_log_path_, "outcome log"));
    }
    TBF_RETURN_NOT_OK(ParseOutcomeRows(log, &*restored));
  } else if (options_->recover) {
    // The journal records past the checkpoint are not applied here: the
    // loop re-runs them from the checkpoint's cursor exactly as a fresh run
    // would, and Record checks each one it produces until none remain.
    // A checkpoint of another run is refused by CheckRestorePoint below, a
    // journal of another run by WalWriter::Open.
    TBF_ASSIGN_OR_RETURN(RecoveredRun recovered,
                         RecoverReplayDir(dir, metrics_));
    retained_ = std::move(recovered.retained);
    report_->wal_truncated_records = recovered.wal.truncated_records;
    verified_records_ =
        metrics_->FindOrCreateCounter("tbf_recovery_replayed_records_total");
    verified_events_ =
        metrics_->FindOrCreateCounter("tbf_wal_recovered_events_total");
    restored = std::move(recovered.checkpoint);
    journaled_ = std::move(recovered.wal.records);
    journaled_.erase(journaled_.begin(),
                     journaled_.begin() + recovered.suffix_begin);
    journal = std::move(recovered.wal);
    // Segment headers carry no loop state: they count as verified at once.
    verified_records_->Add(std::erase_if(journaled_, [](const WalRecord& r) {
      return r.kind == WalRecordKind::kSegmentHeader;
    }));
  } else if (!dir.empty()) {
    TBF_RETURN_NOT_OK(RefuseUsedDir(dir));
  }
  if (restored.has_value()) {
    TBF_RETURN_NOT_OK(
        CheckRestorePoint(*restored, IdentityOf(blank_), trace_events_));
    logged_bytes_ = restored->outcome_log_bytes;
    logged_epochs_ = restored->per_epoch.size();
    logged_tasks_ = restored->task_outcomes.size();
    logged_quarantines_ = restored->quarantined_events.size();
    TBF_RETURN_NOT_OK(restore(*restored));
  }
  report_->resumed = restored.has_value() || Verifying();

  if (!dir.empty()) {
    TBF_ASSIGN_OR_RETURN(
        wal_, WalWriter::Open(dir, std::move(journal), IdentityOf(blank_),
                              options_->wal_fsync, metrics_));
  }
  // The outcome log continues after the prefix the restored checkpoint
  // covers, cutting the rows of epochs this run re-produces, or starts
  // anew with its header.
  if (outcome_log_path_.empty()) return Status::OK();
  TBF_ASSIGN_OR_RETURN(
      outcome_log_,
      logged_bytes_ > 0
          ? AppendFile::OpenAt(outcome_log_path_, logged_bytes_)
          : AppendFile::CreateDurable(outcome_log_path_,
                                      OutcomeLogHeader(IdentityOf(blank_))));
  return Status::OK();
}

// While recovered records remain, the record (re-decided by the loop from
// the restored state) must encode exactly as the journaled one under its
// lsn; any difference means the journal and this run disagree, and
// recovery must not guess which is right. Afterwards records are appended.
Status ReplayStore::Journal(WalRecord* rec) {
  if (!Verifying()) return wal_->Append(rec);
  const WalRecord& logged = journaled_[verify_next_];
  rec->lsn = logged.lsn;
  if (EncodeWalRecord(*rec) != EncodeWalRecord(logged)) {
    const auto label = [](const WalRecord& r) {
      return "kind " + std::to_string(static_cast<int>(r.kind)) +
             ", event " + std::to_string(r.event_index) + " '" + r.id + "'";
    };
    return Status::Internal(
        "recovery: journal/state divergence at lsn " +
        std::to_string(logged.lsn) + ": the re-run loop produced (" +
        label(*rec) + ") but the journal holds (" + label(logged) +
        ") with different fields");
  }
  ++verify_next_;
  verified_records_->Add(1);
  if (rec->kind == WalRecordKind::kWorkerArrival ||
      rec->kind == WalRecordKind::kTaskArrival ||
      rec->kind == WalRecordKind::kWorkerDeparture) {
    ++report_->recovered_events;
    verified_events_->Add(1);
  }
  return Status::OK();
}

Status ReplayStore::EpochDone(uint64_t next_event, uint64_t arrivals_obfuscated,
                              int64_t next_task_slot,
                              const ShardedTbfServer& server) {
  // None while recovered records remain unverified: a checkpoint then would
  // claim journal coverage of records this run has not yet re-produced.
  if (outcome_log_path_.empty() ||
      ++epochs_ % static_cast<uint64_t>(options_->checkpoint_every_epochs) !=
          0 ||
      Verifying()) {
    return Status::OK();
  }
  ReplayReport& report = *report_;
  ReplayCheckpoint ckpt = blank_;
  const uint64_t ordinal = report.per_epoch.size();
  std::string path = options_->checkpoint_path;
  if (wal_ != nullptr) {
    // Journal barrier first, so wal_next_lsn names a durable position.
    TBF_RETURN_NOT_OK(wal_->Sync());
    ckpt.wal_next_lsn = wal_->next_lsn();
    path = options_->durable_dir + "/" + ReplayCheckpointFileName(ordinal);
  }

  // The rows added since the previous checkpoint go to the outcome log and
  // are made durable; then the checkpoint covering its new length.
  ++report.checkpoints_written;
  checkpoints_metric_->Add(1);
  std::string rows;
  AppendOutcomeRows(
      std::span<const EpochStats>(report.per_epoch).subspan(logged_epochs_),
      std::span<const TaskOutcome>(report.task_outcomes).subspan(logged_tasks_),
      std::span<const QuarantineRecord>(report.quarantined_events)
          .subspan(logged_quarantines_),
      &rows);
  TBF_RETURN_NOT_OK(outcome_log_.Append(rows));
  TBF_RETURN_NOT_OK(outcome_log_.Sync());
  logged_epochs_ = report.per_epoch.size();
  logged_tasks_ = report.task_outcomes.size();
  logged_quarantines_ = report.quarantined_events.size();
  ckpt.next_event = next_event;
  ckpt.arrivals_obfuscated = arrivals_obfuscated;
  ckpt.next_task_slot = next_task_slot;
  ckpt.outcome_log_bytes = outcome_log_.size();
  ckpt.epoch_rows = logged_epochs_;
  ckpt.quarantine_rows = logged_quarantines_;
  ckpt.report = report;
  ckpt.server = server.ExportState();
  ckpt.metrics = metrics_->Snapshot();
  TBF_RETURN_NOT_OK(WriteReplayCheckpointFile(ckpt, path));
  if (wal_ == nullptr) return Status::OK();

  // Retention, then whole-segment rotation and compaction below the
  // *oldest* retained checkpoint, which keeps the fallback recoverable. A
  // retired checkpoint's removal is made durable by the rotation's
  // directory sync.
  retained_.push_back(RetainedCheckpoint{ordinal, path, ckpt.wal_next_lsn});
  while (retained_.size() > static_cast<size_t>(options_->keep_checkpoints)) {
    TBF_RETURN_NOT_OK(RemoveFile(retained_.front().path));
    retained_.erase(retained_.begin());
  }
  TBF_RETURN_NOT_OK(wal_->Rotate());
  return wal_->CompactBelow(retained_.front().wal_next_lsn);
}

Status ReplayStore::Close() {
  if (Verifying()) {
    return Status::Internal(
        "recovery: journal records from lsn " +
        std::to_string(journaled_[verify_next_].lsn) +
        " on were never re-produced by the replay loop — trace shorter "
        "than the journaled run?");
  }
  if (wal_ != nullptr) TBF_RETURN_NOT_OK(wal_->Close());
  return outcome_log_.Close();
}

}  // namespace tbf
