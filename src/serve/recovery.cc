#include "serve/recovery.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string_view>
#include <thread>

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

bool IsCheckpointFileName(const std::string& name, uint64_t* ordinal) {
  unsigned long long parsed = 0;
  char tail = '\0';
  if (std::sscanf(name.c_str(), "ckpt-%8llu.ckp%c", &parsed, &tail) != 2 ||
      tail != 't') {
    return false;
  }
  if (name != ReplayCheckpointFileName(parsed)) return false;
  *ordinal = parsed;
  return true;
}

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
  // Enumerate surviving checkpoint files, ordinal ascending.
  std::vector<std::pair<uint64_t, std::string>> candidates;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t ordinal = 0;
    const std::string name = entry.path().filename().string();
    if (IsCheckpointFileName(name, &ordinal)) {
      candidates.emplace_back(ordinal, entry.path().string());
    }
  }
  if (ec) {
    return Status::IOError("recovery: cannot list replay directory " + dir +
                           ": " + ec.message());
  }
  std::sort(candidates.begin(), candidates.end());

  // Validate every candidate (retention + compaction need the full valid
  // list); the newest valid one becomes the restore point. A checkpoint
  // is valid only together with the outcome-log prefix it covers, and a
  // log of another run is never combined with it. Nothing is cut here.
  const std::string log_path = OutcomeLogPath(dir);
  std::optional<std::string> log;  // read once, when a checkpoint needs it
  for (const auto& [ordinal, path] : candidates) {
    Result<ReplayCheckpoint> read = ReadWithRetry<ReplayCheckpoint>(
        "recovery.scan", &run->io_retries,
        [&] { return ReadReplayCheckpointFile(path); });
    if (!read.ok()) {
      ++run->checkpoints_rejected;
      continue;
    }
    if (read->outcome_log_bytes > 0 && !log.has_value()) {
      // A log that does not exist reads as empty, so every checkpoint
      // covering log bytes is rejected as cut short. A read that still
      // fails fails recovery: every checkpoint shares the log, so no
      // fallback helps.
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
    const Status rows =
        ParseOutcomeRows(log.has_value() ? *log : std::string_view(), &*read);
    if (rows.code() == StatusCode::kInvalidArgument) {
      ++run->checkpoints_rejected;  // the prefix is cut short or damaged
      continue;
    }
    if (rows.code() == StatusCode::kFailedPrecondition) {
      return Status::FailedPrecondition("recovery: checkpoint " + path +
                                        " and the outcome log in " + dir +
                                        " belong to different runs");
    }
    TBF_RETURN_NOT_OK(rows);
    run->retained.push_back(
        RetainedCheckpoint{ordinal, path, read->wal_next_lsn});
    run->checkpoint = std::move(*read);
    run->checkpoint_path = path;
  }

  // Scan + repair the journal.
  TBF_ASSIGN_OR_RETURN(run->wal, ScanWalDir(dir, /*repair_torn_tail=*/true));

  // Identity cross-check: a checkpoint and a journal from different runs
  // must never be combined.
  if (run->checkpoint.has_value() && run->wal.has_identity) {
    if (!(IdentityOf(*run->checkpoint) == run->wal.identity)) {
      return Status::FailedPrecondition(
          "recovery: checkpoint " + run->checkpoint_path +
          " and the journal in " + dir + " belong to different runs");
    }
  }

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

}  // namespace tbf
