// How a replay persists a run (ReplayStore), and the crash-anywhere
// recovery of a durable directory.
//
// A durable replay run leaves three kinds of artifacts in its directory:
// periodic checkpoints `ckpt-<ordinal:08>.ckpt` and the append-only
// outcome log `outcomes` (serve/checkpoint.h), and the segmented event
// journal `wal-<seq:08>.seg` (serve/wal.h). After a crash — mid-append,
// mid-fsync, mid-rotation, mid-checkpoint — recovery proceeds in two
// steps:
//
//   1. RecoverReplayDir (below) picks the newest *valid* checkpoint, with
//      its history rows from the outcome log, scans and repairs the
//      journal, cross-checks identities and locates the journal suffix:
//      the first record with lsn >= the checkpoint's wal_next_lsn. It
//      cuts nothing in the outcome log: ReplayStore::Open reopens the log
//      at the checkpoint's covered length (AppendFile::OpenAt) once every
//      check has passed, and the loop re-produces the later rows.
//   2. The replay loop (serve/replay.h, ReplayOptions::recover) restores
//      the checkpoint into a fresh engine and continues from its cursor
//      exactly as a fresh run would. ReplayStore::Record compares each
//      record it produces, byte for byte under the journaled lsn, with the
//      next suffix record instead of appending it; the first difference is
//      an Internal "journal/state divergence at lsn N" error, never a
//      silent fork of history. Once every suffix record is verified the
//      loop appends as usual, so recovery decides, charges and journals
//      exactly what the uninterrupted run did.
//
// Metrics: tbf_recovery_attempts_total, tbf_recovery_checkpoints_rejected
// _total, tbf_recovery_io_retries_total, tbf_wal_truncated_records_total
// (RecoverReplayDir); tbf_recovery_replayed_records_total and
// tbf_wal_recovered_events_total (ReplayStore's verification).
// Fault sites: "recovery.scan" fires on every checkpoint read attempt,
// "recovery.outcome_log" on every outcome-log read attempt.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/replay.h"
#include "serve/sharded_server.h"
#include "serve/wal.h"
#include "workload/instance.h"

namespace tbf {

/// \brief `ckpt-<ordinal:08>.ckpt`.
std::string ReplayCheckpointFileName(uint64_t ordinal);

/// \brief `<dir>/outcomes`: a durable directory's outcome log
/// (serve/checkpoint.h).
std::string OutcomeLogPath(const std::string& dir);

/// \brief One surviving, *valid* checkpoint file (retention candidate).
struct RetainedCheckpoint {
  uint64_t ordinal = 0;
  std::string path;
  uint64_t wal_next_lsn = 0;
};

/// \brief Everything RecoverReplayDir learned about a durable directory.
struct RecoveredRun {
  /// Newest valid checkpoint, if any survived, with its history rows
  /// read from the outcome log.
  std::optional<ReplayCheckpoint> checkpoint;
  std::string checkpoint_path;  ///< "" when no checkpoint survived

  /// Every valid checkpoint, ordinal ascending (for retention/compaction:
  /// compaction must keep the journal back to the *oldest* retained
  /// checkpoint so a later recovery can still fall back to it).
  std::vector<RetainedCheckpoint> retained;

  uint64_t checkpoints_rejected = 0;  ///< corrupt files skipped
  uint64_t io_retries = 0;            ///< transient IO reads retried

  /// Journal scan after torn-tail repair.
  WalScan wal;
  /// Index into wal.records of the first record not covered by the
  /// checkpoint (== wal.records.size() when the checkpoint covers all).
  size_t suffix_begin = 0;
};

/// \brief Step 1 above. A transient read is retried once after 5 ms; a
/// corrupt checkpoint, or one whose outcome-log prefix is cut short or
/// damaged, is rejected and the next-newest tried. Fails (never silently
/// drops events) when the journal has a gap the surviving checkpoints
/// cannot cover, and with the read's IOError when the outcome log stays
/// unreadable. The tbf_recovery_* and tbf_wal_truncated_records_total
/// counters land in `metrics` (when given) on every exit.
Result<RecoveredRun> RecoverReplayDir(const std::string& dir,
                                      obs::MetricRegistry* metrics = nullptr);

/// \brief Everything RunEventReplay does to persist a run; it alone
/// decides what reaches disk and in which order. `durable_dir` keeps the
/// journal, ordinal checkpoints and the outcome log in one directory;
/// `checkpoint_path` is the same store without the journal (one checkpoint
/// file, rewritten in place, and `<checkpoint_path>.outcomes`); with
/// neither the run stays in memory and every call does nothing.
class ReplayStore {
 public:
  /// Checks the persistence options; touches no file. The arguments must
  /// outlive the store, which fills the report's recovery fields.
  static Result<ReplayStore> Create(const ReplayOptions& options,
                                    const EventTrace& trace,
                                    obs::MetricRegistry* metrics,
                                    ReplayReport* report);

  /// Reads the restore point (the single-file checkpoint when resuming,
  /// RecoverReplayDir's when recovering), refuses one of another run or
  /// whose cursor disagrees with its rows, and hands it, with its history
  /// rows, to `restore`. Only then, every check passed, opens the journal
  /// (WalWriter::Open syncs what recovery read of it first) and the outcome
  /// log after the prefix the restore point covers.
  Status Open(const std::function<Status(ReplayCheckpoint&)>& restore);

  /// True when records are journaled, with each dispatch's ledger charge.
  bool journals() const { return wal_ != nullptr; }

  /// Appends `record`, or, while recovered records remain, checks that it
  /// encodes exactly as the next one.
  Status Record(WalRecord* record) {
    return wal_ == nullptr ? Status::OK() : Journal(record);
  }

  /// Counts an epoch and, when a checkpoint is due, appends the new outcome
  /// rows and checkpoints the report, the loop's cursor and `server`
  /// (durable: behind a journal barrier, then retention, rotation and
  /// compaction; never while recovered records remain unverified).
  Status EpochDone(uint64_t next_event, uint64_t arrivals_obfuscated,
                   int64_t next_task_slot, const ShardedTbfServer& server);

  /// Internal when recovered records were never re-produced; else syncs
  /// and closes.
  Status Close();

 private:
  ReplayStore(const ReplayOptions& options, const EventTrace& trace,
              obs::MetricRegistry* metrics, ReplayReport* report);

  bool Verifying() const { return verify_next_ < journaled_.size(); }
  Status Journal(WalRecord* record);

  const ReplayOptions* options_;
  size_t trace_events_;
  obs::MetricRegistry* metrics_;
  ReplayReport* report_;
  obs::Counter* checkpoints_metric_;
  ReplayCheckpoint blank_;  ///< the run's identity; each checkpoint's start
  std::string outcome_log_path_;  ///< "" in memory

  std::unique_ptr<WalWriter> wal_;
  AppendFile outcome_log_;
  std::vector<RetainedCheckpoint> retained_;  ///< valid, ordinal order
  uint64_t epochs_ = 0;  ///< completed by this run

  // Outcome-log coverage: its length and the rows of each kind it holds.
  uint64_t logged_bytes_ = 0;
  size_t logged_epochs_ = 0;
  size_t logged_tasks_ = 0;
  size_t logged_quarantines_ = 0;

  // The recovered journal suffix past the restore point, lsn order and
  // without segment headers, and the first record not verified.
  std::vector<WalRecord> journaled_;
  size_t verify_next_ = 0;
  obs::Counter* verified_records_ = nullptr;
  obs::Counter* verified_events_ = nullptr;
};

}  // namespace tbf
