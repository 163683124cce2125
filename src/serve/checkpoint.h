// Crash-safe replay checkpoints.
//
// A ReplayCheckpoint freezes everything the event-time replay loop needs
// to continue draw-for-draw identically after a crash: the replay cursor
// (next event, obfuscation fork offset, next task slot), the partial
// report (the ReplayCounts outcome tally, per-epoch stats, task
// outcomes, quarantine records), the engine's full state (worker
// registry, index-id pool incl. free-list order, tie-break RNG, budget
// ledger) and the run's metrics snapshot. Identity fields (trace fingerprint, shard count,
// epoch length, seeds) let resume refuse a checkpoint that does not
// belong to the run being resumed.
//
// On-disk format, v5 (docs/ROBUSTNESS.md has the record catalog): a
// stream of CRC-framed binary records in the frame format every on-disk
// artifact shares (common/frames.h — the same frame writer, frame walker
// and field codec as the journal, and the same file grammar as tree
// snapshots):
//
//   file    := header record* end
//   frame   := <len:u32> <crc:u32> <payload: len bytes>
//   payload := <kind:u8> <kind-specific fields>
//
// The header carries the magic "TBF-CKPT" and the version; every other
// row (identity, cursor, report, each epoch/task/quarantine row, server,
// rng, each slot/free/worker row, ledger, each spend row, each
// counter/gauge/histogram) is one record; the end record counts the
// records before it, so a file cut at a frame boundary is refused too.
// Integers are little-endian, doubles are IEEE-754 bit patterns (they
// round-trip bit-exactly), strings are <len:u32><bytes>, and a worker's
// report is its 128-bit LeafCode as 16 bytes (low u64, then high u64) —
// the only leaf encoding. The CRC-32 (IEEE reflected, zlib/binascii-
// compatible) covers each payload, so tools/check_checkpoint.py validates
// a file with only the Python standard library. Older versions are
// refused with InvalidArgument naming the version: v4 (whose server
// record carried a packed-mode flag and whose worker rows carried a u64
// code next to a "d0.d1…" digit string) and the v1-v3 text format.
//
// WriteReplayCheckpointFile is atomic: the bytes go to `<path>.tmp`,
// are fsync'd, and rename(2) publishes them — a crash mid-write leaves
// either the previous checkpoint or a stray .tmp, never a torn file.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "serve/replay.h"
#include "serve/sharded_server.h"
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
/// binary record stream with two worker leaf encodings; v5 is the record
/// stream described above, with one, and the only version read.
struct ReplayCheckpoint {
  int version = 5;

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

  // Partial report: the outcome counters accumulated so far (restore
  // takes all but checkpoints_written, which counts each run's own), the
  // per-epoch stats, and one row per task dispatched so far.
  ReplayCounts report;
  std::vector<EpochStats> per_epoch;
  std::vector<TaskOutcome> task_outcomes;  ///< next_task_slot rows
  std::vector<QuarantineRecord> quarantined_events;

  // Engine and flight-recorder state.
  ShardedServerState server;
  obs::MetricsSnapshot metrics;
};

/// \brief Serializes to the v5 record stream (see the format note above).
std::string SerializeReplayCheckpoint(const ReplayCheckpoint& checkpoint);

/// \brief Parses and validates (frames, CRCs, record schema, file
/// grammar) a serialized checkpoint. Corruption anywhere yields an
/// InvalidArgument naming the record and byte offset, never a crash.
Result<ReplayCheckpoint> ParseReplayCheckpoint(const std::string& bytes);

/// \brief Atomic write: tmp file + fsync + rename.
Status WriteReplayCheckpointFile(const ReplayCheckpoint& checkpoint,
                                 const std::string& path);

Result<ReplayCheckpoint> ReadReplayCheckpointFile(const std::string& path);

}  // namespace tbf
