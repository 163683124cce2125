// Crash-anywhere recovery supervisor.
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
//      cuts nothing in the outcome log: the replay loop reopens the log
//      at the checkpoint's covered length (AppendFile::OpenAt) once every
//      check has passed, and re-produces the later rows.
//   2. The replay loop (serve/replay.h, ReplayOptions::recover) restores
//      the checkpoint into a fresh engine and continues from its cursor
//      exactly as a fresh run would. Each record it produces is compared,
//      byte for byte under the journaled lsn, with the next suffix record
//      instead of being appended; the first difference is an Internal
//      "journal/state divergence at lsn N" error, never a silent fork of
//      history. Once every suffix record is verified the loop appends as
//      usual, so recovery decides, charges and journals exactly what the
//      uninterrupted run did.
//
// Metrics: tbf_recovery_attempts_total, tbf_recovery_checkpoints_rejected
// _total, tbf_recovery_io_retries_total, tbf_wal_truncated_records_total
// (RecoverReplayDir); tbf_recovery_replayed_records_total and
// tbf_wal_recovered_events_total (the replay loop's verification).
// Fault sites: "recovery.scan" fires on every checkpoint read attempt,
// "recovery.outcome_log" on every outcome-log read attempt.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/wal.h"

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

}  // namespace tbf
