// Segmented write-ahead event journal for the replay loop.
//
// Every event the serving loop processes — worker arrival, task arrival,
// departure, quarantine, stream-fault bookkeeping, live republish, epoch
// boundary — is appended to the journal *with the obfuscated report it
// carried and the outcome (status, assignment, ledger charge) the engine
// produced*, before the loop moves on. Together with the periodic
// checkpoints (serve/checkpoint.h) this closes the durability gap between
// checkpoints: after a crash anywhere, recovery (serve/recovery.h)
// restores the newest valid checkpoint and re-runs the replay loop from
// it, checking every record the loop produces against the journal suffix,
// which reproduces state field-for-field identical to an uninterrupted
// run. Logging the report (not just the event) matters in a DP system: a
// re-run that drew a different report for an already-served event would
// release that location a second time, so recovery refuses any report
// that differs from the logged one.
//
// On-disk layout. A journal is a directory of segment files
// `wal-<seq:08>.seg`. Each segment is a stream of CRC-framed records in
// the frame format checkpoints and tree snapshots share
// (common/frames.h owns the frames, the CRC and the field encodings):
//
//   frame   := <len:u32> <crc:u32> <payload: len bytes>
//   payload := <kind:u8> <lsn:u64> <kind-specific fields>
//
// Format v2: every arrival and task record carries its reported leaf as
// a 128-bit LeafCode (its report flag must be set); the v1 journal, whose
// records could carry a u16 digit path instead, is refused with a message
// naming the version. The CRC-32 covers the payload bytes, so
// tools/check_wal.py can validate a segment with only the Python
// standard library. The first record of every segment is a
// kSegmentHeader carrying the format version, the segment sequence
// number, and the run's identity (trace fingerprint, shard count, epoch
// length, seeds) so recovery can refuse a journal that belongs to a
// different run even when no checkpoint survived.
//
// LSNs are assigned by the writer and strictly increase by one across
// records *and* segments (segment headers consume an LSN too), so a
// checkpoint's `wal_next_lsn` names an exact journal position: recovery
// verifies records with lsn >= wal_next_lsn and compaction deletes
// segments entirely below the oldest retained checkpoint.
//
// When records become durable is the WalFsyncPolicy; the torn-tail repair
// a crash calls for is ScanWalDir's. Every file operation goes through
// common/atomic_file.h.
//
// Fault sites (docs/ROBUSTNESS.md): "wal.append" (hit-indexed by LSN; a
// forced failure simulates a crash, leaving a deterministic torn prefix
// of the unflushed bytes on disk), "wal.fsync", "wal.rotate"
// (hit-indexed by new segment seq).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_file.h"
#include "common/result.h"
#include "hst/leaf_code.h"
#include "obs/metrics.h"

namespace tbf {

/// The segment format version this build writes and reads.
inline constexpr uint32_t kWalFormatVersion = 2;

/// \brief Identity of the run a journal belongs to; mirrors the
/// checkpoint identity fields. Recovery refuses a journal whose identity
/// does not match the run being recovered.
struct WalIdentity {
  uint32_t trace_fingerprint = 0;
  int32_t num_shards = 1;
  double epoch_seconds = 0.0;
  uint64_t server_seed = 0;
  uint64_t obfuscation_seed = 0;

  bool operator==(const WalIdentity& o) const {
    return trace_fingerprint == o.trace_fingerprint &&
           num_shards == o.num_shards && epoch_seconds == o.epoch_seconds &&
           server_seed == o.server_seed &&
           obfuscation_seed == o.obfuscation_seed;
  }
};

enum class WalRecordKind : uint8_t {
  kSegmentHeader = 0,   ///< first record of every segment
  kEpochBegin = 1,      ///< one event window opens
  kWorkerArrival = 2,   ///< dispatched worker registration + outcome
  kTaskArrival = 3,     ///< dispatched task submission + outcome
  kWorkerDeparture = 4, ///< dispatched unregistration + outcome
  kQuarantine = 5,      ///< poison/fault event quarantined (report-level)
  kStreamFault = 6,     ///< stream mutation bookkeeping (report-level)
  kRepublish = 7,       ///< live tree swap applied
};

/// \brief Engine outcome of one dispatched event, as journaled.
struct WalOutcome {
  int32_t status_code = 0;   ///< StatusCode as int (0 = OK)
  std::string message;       ///< status message ("" when OK)
  bool has_worker = false;   ///< task: a worker was assigned
  std::string worker;        ///< task: assigned worker id
  double tree_distance = 0.0;      ///< task: reported tree distance
  double epsilon_charged = 0.0;    ///< ledger delta of this dispatch
  uint8_t budget_denied = 0;       ///< 0 none, 1 epoch cap, 2 lifetime cap
  /// True when an injected fault refused the report *before* it reached
  /// the engine ("replay.budget"). Recovery re-decides it under the
  /// re-armed fault plan and must reproduce this flag.
  bool forced = false;
};

/// \brief One journal record — a tagged union over WalRecordKind; only
/// the fields of the active kind are serialized.
struct WalRecord {
  WalRecordKind kind = WalRecordKind::kEpochBegin;
  uint64_t lsn = 0;  ///< assigned by WalWriter::Append

  // kSegmentHeader
  uint32_t format_version = kWalFormatVersion;
  uint64_t segment_seq = 0;
  WalIdentity identity;

  // kEpochBegin: the loop cursor at the window start.
  int64_t epoch = 0;
  uint64_t begin_index = 0;          ///< first trace index of the window
  uint64_t arrivals_obfuscated = 0;  ///< global ForkAt offset
  int64_t next_task_slot = 0;

  // Dispatch records (arrival/task/departure/quarantine/stream fault).
  uint64_t event_index = 0;  ///< absolute index into EventTrace::events
  std::string id;            ///< worker/task id
  /// Arrival/task: the record carries a report. Always true: the encoder
  /// writes the code and sets the on-disk flag whatever this says, and
  /// the decoder refuses an arrival or task record with the flag clear.
  bool packed = true;
  LeafCode code = 0;         ///< the reported LeafCode
  bool has_epsilon = false;
  double declared_epsilon = 0.0;
  int64_t task_slot = -1;    ///< kTaskArrival: ReplayReport slot
  bool missed = false;       ///< kWorkerDeparture: unregister failed
  WalOutcome outcome;

  // kQuarantine
  std::string cause;
  // kStreamFault: 0 drop, 1 duplicate, 2 reorder, 3 stall.
  uint8_t fault_kind = 0;
  // kRepublish: the engine's tree epoch after the swap.
  uint64_t tree_epoch = 0;
};

/// \brief When the journal write + fsync happens. kEveryRecord writes and
/// fsyncs each append: it survives power loss up to the last acknowledged
/// record. kGroupCommit buffers appends and writes + fsyncs the group (see
/// below): a crash loses at most one group. kNone writes each append with
/// no fsync: it survives a process crash, not power loss.
///
/// Group-commit defaults: `max_delay_seconds` is the durability bound (a
/// crash loses at most that much event time), checked at the next append —
/// an idle stream holds its last group until the next record or an
/// explicit Sync(). `max_records`/`max_bytes` bound memory and the
/// recovery replay window at high event rates, where a per-group fsync
/// would otherwise dominate throughput.
struct WalFsyncPolicy {
  enum class Kind { kEveryRecord, kGroupCommit, kNone };
  Kind kind = Kind::kGroupCommit;
  size_t max_records = 4096;      ///< kGroupCommit: records per group
  size_t max_bytes = 1 << 20;     ///< kGroupCommit: bytes per group
  double max_delay_seconds = 0.02;  ///< kGroupCommit: group age bound

  static WalFsyncPolicy EveryRecord() {
    return WalFsyncPolicy{Kind::kEveryRecord, 0, 0, 0.0};
  }
  static WalFsyncPolicy GroupCommit(size_t max_records = 4096,
                                    size_t max_bytes = 1 << 20,
                                    double max_delay_seconds = 0.02) {
    return WalFsyncPolicy{Kind::kGroupCommit, max_records, max_bytes,
                          max_delay_seconds};
  }
  static WalFsyncPolicy None() {
    return WalFsyncPolicy{Kind::kNone, 0, 0, 0.0};
  }
};

/// \brief Serializes one record's payload (no frame). The writer frames
/// it as <len><crc><payload>; exposed for tests and fuzzing.
std::string EncodeWalRecord(const WalRecord& record);

/// \brief Appends the payload to `out` without clearing it. The writer's
/// hot path uses this with a reused scratch buffer so steady-state
/// appends allocate nothing.
void EncodeWalRecordTo(const WalRecord& record, std::string* out);

/// \brief Parses one payload. Refuses unknown kinds, short fields and
/// trailing bytes with precise InvalidArgument statuses; never crashes
/// on corrupt input.
Result<WalRecord> DecodeWalRecord(std::string_view payload);

/// \brief `wal-<seq:08>.seg`.
std::string WalSegmentFileName(uint64_t seq);

struct WalSegmentInfo {
  uint64_t seq = 0;
  uint64_t first_lsn = 0;  ///< the segment header's own LSN
  std::string path;
  uint64_t records = 0;    ///< valid records incl. the header
  uint64_t bytes = 0;      ///< valid frame bytes
};

/// \brief Result of scanning (and optionally repairing) a journal dir.
struct WalScan {
  std::vector<WalRecord> records;  ///< every valid record, in LSN order
  uint64_t next_lsn = 0;           ///< first unused LSN
  std::vector<WalSegmentInfo> segments;  ///< seq order
  bool has_identity = false;
  WalIdentity identity;

  // Torn-tail repair report (all zero for a clean journal).
  uint64_t truncated_records = 0;  ///< torn frames dropped at the tail
  uint64_t truncated_bytes = 0;    ///< bytes dropped at the tail
  std::string tail_detail;         ///< record-precise repair description
};

/// \brief Scans every segment of `dir` in sequence order, validating
/// frames (CRC, length), record schema, header identity agreement, and
/// LSN/segment contiguity.
///
/// A bad frame at the end of the *last* segment is a torn write: with
/// `repair_torn_tail` the file is truncated to its valid prefix and the
/// cut synced (a last segment with no valid header is deleted outright,
/// and the directory synced) and the scan
/// reports what was dropped; without it the scan fails with the same
/// record-precise status. A bad frame anywhere else is corruption and
/// always fails (InvalidArgument). An empty or missing directory yields
/// an empty scan, not an error.
Result<WalScan> ScanWalDir(const std::string& dir, bool repair_torn_tail);

/// \brief Appending journal writer. Not thread-safe (the replay loop
/// journals from its sequential dispatch path). Any IO failure poisons
/// the writer: further appends are refused, the on-disk journal stays a
/// valid prefix.
class WalWriter {
 public:
  /// Opens `dir` for appending after the journal `scan` describes (a
  /// repairing ScanWalDir of `dir`; its records are not read): refuses a
  /// journal of another identity, syncs the last segment (the scan may
  /// have read its tail from the page cache alone) and starts a fresh
  /// segment after the last valid record; a last segment that holds only
  /// its header is continued under its own seq and LSN instead, so
  /// reopening a finished journal adds no segment. An empty scan starts
  /// the journal, creating `dir`. Metrics (may be null):
  /// tbf_wal_appends_total, tbf_wal_fsyncs_total, tbf_wal_bytes_total,
  /// tbf_wal_group_size, tbf_wal_rotations_total,
  /// tbf_wal_compacted_segments_total.
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& dir, WalScan scan, const WalIdentity& identity,
      const WalFsyncPolicy& policy, obs::MetricRegistry* metrics);

  /// Scans and repairs `dir` (ScanWalDir), then opens it as above.
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& dir, const WalIdentity& identity,
      const WalFsyncPolicy& policy, obs::MetricRegistry* metrics);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record, assigning `record->lsn`, and commits per the
  /// fsync policy. Fault site "wal.append" (hit-indexed by the LSN): a
  /// forced failure simulates a crash — the unflushed group is replaced
  /// by a deterministic torn prefix on disk and the writer is poisoned.
  Status Append(WalRecord* record);

  /// Writes and fsyncs everything buffered (a group-commit barrier; the
  /// checkpoint path calls this before recording wal_next_lsn).
  Status Sync();

  /// Syncs, closes the current segment and starts the next one (fault
  /// site "wal.rotate"). Called after every durable checkpoint so
  /// compaction works on whole segments.
  Status Rotate();

  /// Deletes segments whose every record has lsn < keep_from_lsn (never
  /// the active segment). Safe to call with the oldest retained
  /// checkpoint's wal_next_lsn.
  Status CompactBelow(uint64_t keep_from_lsn);

  /// Final sync + close; the destructor calls it best-effort.
  Status Close();

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t segment_seq() const { return seq_; }

 private:
  WalWriter(std::string dir, WalIdentity identity, WalFsyncPolicy policy,
            obs::MetricRegistry* metrics);

  Status Usable() const;  ///< FailedPrecondition once closed or poisoned
  Status Poison(Status status);  ///< poisons the writer if `status` failed
  Status OpenSegment(uint64_t seq);
  Status Commit(bool do_fsync);
  void SimulateTornCrash(uint64_t lsn);

  std::string dir_;
  WalIdentity identity_;
  WalFsyncPolicy policy_;
  AppendFile file_;  ///< the active segment
  uint64_t next_lsn_ = 0;
  uint64_t seq_ = 0;
  std::vector<WalSegmentInfo> segments_;  ///< retained, seq order
  std::string pending_;  ///< encoded frames not yet written
  size_t pending_records_ = 0;
  size_t records_since_fsync_ = 0;
  double group_opened_seconds_ = 0.0;  ///< monotonic time of first pending
  bool poisoned_ = false;
  bool closed_ = false;

  obs::Counter* appends_ = nullptr;
  obs::Counter* fsyncs_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::Counter* rotations_ = nullptr;
  obs::Counter* compacted_ = nullptr;
  obs::Histogram* group_size_ = nullptr;
};

}  // namespace tbf
