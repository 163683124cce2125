// Crash-safe replay checkpoints and the outcome log.
//
// A ReplayCheckpoint freezes the live state the event-time replay loop
// needs to continue draw-for-draw identically after a crash (cursor,
// outcome tally, the engine's full state, metrics), with the identity
// that lets resume refuse a checkpoint of another run. Its size follows
// the live state, not the length of the run.
//
// History — one row per epoch, per task dispatch and per quarantined
// event — lives in the append-only outcome log next to the checkpoints
// (`<durable_dir>/outcomes`, or `<checkpoint_path>.outcomes` for a
// single-file checkpoint). At each checkpoint ReplayStore
// (serve/recovery.h) appends the rows added since the previous one
// (AppendOutcomeRows) and fsyncs the log, then writes the checkpoint,
// whose cursor records the log's byte length and row counts.
// Resume reads the log up to that length (ParseOutcomeRows); anything
// past it belongs to epochs the resumed run re-produces, and is cut when
// the store reopens the log (AppendFile::OpenAt).
//
// On-disk format (docs/ROBUSTNESS.md has the record catalogs): both files
// are streams of CRC-framed binary records in the frame format every
// on-disk artifact shares (common/frames.h — the same frame writer, frame
// walker and field codec as the journal):
//
//   checkpoint  := header record* end        (v8, magic "TBF-CKPT")
//   outcome log := header row*               (v1, magic "TBF-OLOG")
//   frame       := <len:u32> <crc:u32> <payload: len bytes>
//   payload     := <kind:u8> <kind-specific fields>
//
// A checkpoint's header carries the magic and the version; identity,
// cursor, report, server, rng, ledger and each counter, gauge and
// histogram are one record each. Free ids, worker rows and spend rows are
// tables: records of whole rows, at most 64 KiB of them each, read until
// the payload ends (common/frames.h), so a damaged row is refused by its
// row number. The end record counts the records before it, so a file cut
// at a frame boundary is refused too. The server record carries the
// index-id pool size; the worker rows' index ids and the free ids
// partition it. The checkpoint shares the snapshot's file grammar. The outcome log has no
// end record (it grows): its header carries the magic, the version and
// the run identity, and each row is an epoch, task or quarantine record.
// Integers are little-endian, doubles are IEEE-754 bit patterns (they
// round-trip bit-exactly), strings are <len:u32><bytes>, and a worker's
// report is its 128-bit LeafCode as 16 bytes (low u64, then high u64).
// The CRC-32 (IEEE reflected, zlib/binascii-compatible) covers each
// payload, so tools/check_checkpoint.py validates both with only the
// Python standard library. Older checkpoint versions are refused with
// InvalidArgument naming the version: v7 (one record per free, worker and
// spend row), v6 (which repeated each worker's index id in a slot row per
// pool id), v5 (which carried the history rows itself), v4 (two worker
// leaf encodings) and the v1-v3 text format.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "serve/replay.h"
#include "serve/sharded_server.h"
#include "serve/wal.h"
#include "workload/instance.h"

namespace tbf {

/// \brief Order-sensitive fingerprint of a trace (region + every event's
/// kind, time bits, id and location bits). Unlike WriteEventTrace it
/// never fails — poison events (NaN times, garbage ids) fingerprint fine.
uint32_t FingerprintEventTrace(const EventTrace& trace);

/// \brief Serializable state of one replay run (see RunEventReplay).
///
/// Version history: v1-v3 were a line-oriented text format (v2 added the
/// server's tree epoch, v3 the journal position wal_next_lsn); v4 was the
/// binary record stream with two worker leaf encodings; v5 had one and
/// still carried every history row; v6 moved those rows to the outcome
/// log; v7 dropped the slot rows for the pool size; v8 writes the free,
/// worker and spend rows as table records, and is the only version read.
struct ReplayCheckpoint {
  int version = 8;

  // Identity: resume refuses a checkpoint whose trace or configuration
  // does not match the run being resumed.
  uint32_t trace_fingerprint = 0;
  int num_shards = 1;
  double epoch_seconds = 0.0;
  uint64_t server_seed = 0;
  uint64_t obfuscation_seed = 0;

  // Replay cursor.
  uint64_t next_event = 0;           ///< first trace event not yet replayed
  uint64_t arrivals_obfuscated = 0;  ///< global ForkAt offset
  int64_t next_task_slot = 0;        ///< next ReplayReport task slot

  /// First journal LSN *not* covered by this checkpoint: recovery
  /// verifies WAL records with lsn >= wal_next_lsn, and compaction may
  /// delete segments entirely below the oldest retained checkpoint's
  /// value. 0 for non-durable runs (no journal).
  uint64_t wal_next_lsn = 0;

  /// The outcome-log prefix this checkpoint covers: its length in bytes
  /// and its epoch and quarantine row counts (its task rows number
  /// next_task_slot). 0 when the run keeps no log.
  uint64_t outcome_log_bytes = 0;
  uint64_t epoch_rows = 0;
  uint64_t quarantine_rows = 0;

  /// The outcome counters accumulated so far (restore takes all but
  /// checkpoints_written, which counts each run's own).
  ReplayCounts report;

  // History rows: not part of the checkpoint file (SerializeReplayCheckpoint
  // ignores them and ParseReplayCheckpoint leaves them empty). Resume
  // reassembles them from the outcome log's covered prefix
  // (ParseOutcomeRows) before it restores.
  std::vector<EpochStats> per_epoch;       ///< epoch_rows rows
  std::vector<TaskOutcome> task_outcomes;  ///< next_task_slot rows
  std::vector<QuarantineRecord> quarantined_events;  ///< quarantine_rows

  // Engine and flight-recorder state.
  ShardedServerState server;
  obs::MetricsSnapshot metrics;
};

/// \brief The run identity the checkpoint carries, as the journal states it.
WalIdentity IdentityOf(const ReplayCheckpoint& checkpoint);

/// \brief Serializes to the v8 record stream (see the format note above).
std::string SerializeReplayCheckpoint(const ReplayCheckpoint& checkpoint);

/// \brief Parses and validates (frames, CRCs, record schema, file
/// grammar) a serialized checkpoint. Corruption anywhere yields an
/// InvalidArgument naming the record and byte offset, never a crash.
Result<ReplayCheckpoint> ParseReplayCheckpoint(const std::string& bytes);

/// \brief Atomic write (WriteFileAtomic, common/atomic_file.h): a crash
/// leaves the previous checkpoint or a stray `.tmp`, never a torn file.
Status WriteReplayCheckpointFile(const ReplayCheckpoint& checkpoint,
                                 const std::string& path);

Result<ReplayCheckpoint> ReadReplayCheckpointFile(const std::string& path);

/// \brief The outcome log's header record, carrying `identity`.
std::string OutcomeLogHeader(const WalIdentity& identity);

/// \brief Appends one framed outcome-log row per element to `out`: the
/// epochs, then the tasks, then the quarantines.
void AppendOutcomeRows(std::span<const EpochStats> epochs,
                       std::span<const TaskOutcome> tasks,
                       std::span<const QuarantineRecord> quarantines,
                       std::string* out);

/// \brief Reads the outcome-log prefix each of `checkpoints` covers (its
/// first outcome_log_bytes bytes of `log`) in one walk of the log: the
/// header, whose identity must be the checkpoint's, and whole rows,
/// CRC-clean and schema-valid. Returns one status per checkpoint:
/// FailedPrecondition when the header names another run; InvalidArgument,
/// naming the record and byte offset, when the log is shorter than the
/// length, the length cuts a frame, or a record before it is bad. The last
/// checkpoint read OK gets its history rows, the walk's first rows; the row
/// counts are the restore's to compare with the cursor.
std::vector<Status> ParseOutcomeRows(std::string_view log,
                                     std::span<ReplayCheckpoint> checkpoints);

/// \brief The same for one checkpoint.
Status ParseOutcomeRows(std::string_view log, ReplayCheckpoint* checkpoint);

}  // namespace tbf
