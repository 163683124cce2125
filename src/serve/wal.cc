#include "serve/wal.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/frames.h"

namespace tbf {

namespace {

namespace fs = std::filesystem;

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Flags byte of dispatch records. kFlagReport must be set on every
// arrival and task record: it carries the reported leaf code.
constexpr uint8_t kFlagReport = 1 << 0;
constexpr uint8_t kFlagHasEpsilon = 1 << 1;
constexpr uint8_t kFlagForced = 1 << 2;
constexpr uint8_t kFlagHasWorker = 1 << 3;
constexpr uint8_t kFlagMissed = 1 << 4;

// Record schemas (common/frames.h): one per WalRecordKind, run by
// EncodeWalRecordTo with a FieldWriter over a const record and by
// DecodeWalRecord with a FieldReader over a fresh one.
template <typename Io, typename R>
Status SegmentHeaderFields(Io& io, R& r) {
  TBF_RETURN_NOT_OK(io(r.format_version));
  TBF_RETURN_NOT_OK(io.Check(r.format_version == kWalFormatVersion, [&] {
    return "wal segment header: unsupported format version " +
           std::to_string(r.format_version) + " (this build reads v" +
           std::to_string(kWalFormatVersion) + ")";
  }));
  return io(r.segment_seq, r.identity.trace_fingerprint,
            r.identity.num_shards, r.identity.epoch_seconds,
            r.identity.server_seed, r.identity.obfuscation_seed);
}

template <typename Io, typename R>
Status EpochBeginFields(Io& io, R& r) {
  return io(r.epoch, r.begin_index, r.arrivals_obfuscated, r.next_task_slot);
}

// Worker and task arrivals: the report, then the engine's outcome.
template <typename Io, typename R>
Status ArrivalFields(Io& io, R& r) {
  // Every v2 arrival/task record carries its report, whatever `packed`
  // says; a fresh record's `packed` is already true.
  bool report = true;
  TBF_RETURN_NOT_OK(io(r.event_index, r.id,
                       FlagByte(Flag{kFlagReport, report},
                                Flag{kFlagHasEpsilon, r.has_epsilon},
                                Flag{kFlagForced, r.outcome.forced},
                                Flag{kFlagHasWorker, r.outcome.has_worker})));
  TBF_RETURN_NOT_OK(io.Check(
      report,
      "wal record: arrival/task record without its report (flag clear)"));
  TBF_RETURN_NOT_OK(io(r.code));
  if (r.has_epsilon) TBF_RETURN_NOT_OK(io(r.declared_epsilon));
  TBF_RETURN_NOT_OK(io(r.outcome.status_code, r.outcome.message,
                       r.outcome.epsilon_charged, r.outcome.budget_denied));
  TBF_RETURN_NOT_OK(io.Check(r.outcome.budget_denied <= 2,
                             "wal record: budget_denied out of range"));
  if (r.kind != WalRecordKind::kTaskArrival) {
    return io.Check(!r.outcome.has_worker,
                    "wal record: worker flag on a non-task record");
  }
  TBF_RETURN_NOT_OK(io(r.task_slot));
  if (r.outcome.has_worker) TBF_RETURN_NOT_OK(io(r.outcome.worker));
  return io(r.outcome.tree_distance);
}

template <typename Io, typename R>
Status DepartureFields(Io& io, R& r) {
  return io(r.event_index, r.id, FlagByte(Flag{kFlagMissed, r.missed}));
}

template <typename Io, typename R>
Status QuarantineFields(Io& io, R& r) {
  return io(r.event_index, r.id, r.cause);
}

template <typename Io, typename R>
Status StreamFaultFields(Io& io, R& r) {
  TBF_RETURN_NOT_OK(io(r.event_index, r.fault_kind));
  return io.Check(r.fault_kind <= 3, "wal record: fault_kind out of range");
}

template <typename Io, typename R>
Status RepublishFields(Io& io, R& r) {
  return io(r.tree_epoch);
}

// The whole payload: <kind:u8> <lsn:u64>, then the kind's schema.
template <typename Io, typename R>
Status RecordFields(Io& io, R& r) {
  TBF_RETURN_NOT_OK(io(r.kind));
  TBF_RETURN_NOT_OK(
      io.Check(r.kind <= WalRecordKind::kRepublish, [&] {
        return "wal record: unknown kind " +
               std::to_string(static_cast<int>(r.kind));
      }));
  TBF_RETURN_NOT_OK(io(r.lsn));
  switch (r.kind) {
    case WalRecordKind::kSegmentHeader: return SegmentHeaderFields(io, r);
    case WalRecordKind::kEpochBegin: return EpochBeginFields(io, r);
    case WalRecordKind::kWorkerArrival:
    case WalRecordKind::kTaskArrival: return ArrivalFields(io, r);
    case WalRecordKind::kWorkerDeparture: return DepartureFields(io, r);
    case WalRecordKind::kQuarantine: return QuarantineFields(io, r);
    case WalRecordKind::kStreamFault: return StreamFaultFields(io, r);
    case WalRecordKind::kRepublish: return RepublishFields(io, r);
  }
  return Status::OK();
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  out.reserve(80 + record.id.size() + record.outcome.message.size() +
              record.outcome.worker.size() + record.cause.size());
  EncodeWalRecordTo(record, &out);
  return out;
}

void EncodeWalRecordTo(const WalRecord& record, std::string* out) {
  FieldWriter io(out);
  static_cast<void>(RecordFields(io, record));
}

Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  FieldReader io(payload, "wal record");
  WalRecord rec;
  TBF_RETURN_NOT_OK(RecordFields(io, rec));
  if (!io.AtEnd()) {
    return Status::InvalidArgument(
        "wal record: trailing bytes after a complete record (kind " +
        std::to_string(static_cast<int>(rec.kind)) + ")");
  }
  return rec;
}

std::string WalSegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.seg",
                static_cast<unsigned long long>(seq));
  return buf;
}

Result<WalScan> ScanWalDir(const std::string& dir, bool repair_torn_tail) {
  WalScan out;
  std::error_code ec;
  if (!fs::exists(dir, ec) || ec) return out;

  TBF_ASSIGN_OR_RETURN(const auto files,  // (seq, path)
                       ListNumberedFiles(dir, WalSegmentFileName));
  if (files.empty()) return out;

  for (size_t i = 0; i + 1 < files.size(); ++i) {
    if (files[i + 1].first != files[i].first + 1) {
      return Status::InvalidArgument(
          "wal directory " + dir + ": segment sequence gap (" +
          WalSegmentFileName(files[i].first) + " is followed by " +
          WalSegmentFileName(files[i + 1].first) + ")");
    }
  }

  bool have_lsn = false;
  for (size_t i = 0; i < files.size(); ++i) {
    const bool last = i + 1 == files.size();
    const std::string& path = files[i].second;
    TBF_ASSIGN_OR_RETURN(std::string blob,
                         ReadFileToString(path, "wal segment"));
    std::vector<WalRecord> records;
    const FrameWalk seg =
        WalkFrames(blob, [&records](std::string_view payload) -> Status {
          TBF_ASSIGN_OR_RETURN(WalRecord rec, DecodeWalRecord(payload));
          records.push_back(std::move(rec));
          return Status::OK();
        });
    const std::string where = "wal segment " + path + ": " + seg.bad_detail;
    if (seg.bad && !last) {
      return Status::InvalidArgument(
          where + " — corruption before the journal tail");
    }
    // Every segment must open with a header whose seq matches its file
    // name and whose identity agrees with the rest of the journal.
    if (records.empty()) {
      if (!last) {
        return Status::InvalidArgument("wal segment " + path +
                                       ": no valid records (missing header)");
      }
      // A last segment with no valid header is a torn creation: nothing
      // in it is usable. Repair deletes the file.
      out.truncated_records += 1;
      out.truncated_bytes += blob.size();
      out.tail_detail = seg.bad ? where
                                : "wal segment " + path + ": empty file";
      if (repair_torn_tail) {
        TBF_RETURN_NOT_OK(RemoveFile(path));
        TBF_RETURN_NOT_OK(FsyncDir(dir));
        break;
      }
      return Status::InvalidArgument(out.tail_detail +
                                     " — torn tail (repair disabled)");
    }
    const WalRecord& header = records.front();
    if (header.kind != WalRecordKind::kSegmentHeader) {
      return Status::InvalidArgument("wal segment " + path +
                                     ": first record is not a segment header");
    }
    if (header.segment_seq != files[i].first) {
      return Status::InvalidArgument(
          "wal segment " + path + ": header seq " +
          std::to_string(header.segment_seq) + " does not match the file name");
    }
    if (!out.has_identity) {
      out.identity = header.identity;
      out.has_identity = true;
    } else if (!(out.identity == header.identity)) {
      return Status::InvalidArgument(
          "wal segment " + path +
          ": run identity differs from the preceding segments");
    }
    if (!have_lsn) {
      out.next_lsn = header.lsn;  // the oldest retained segment sets the base
      have_lsn = true;
    }
    for (size_t k = 0; k < records.size(); ++k) {
      const WalRecord& rec = records[k];
      if (rec.lsn != out.next_lsn) {
        return Status::InvalidArgument(
            "wal segment " + path + ": record " + std::to_string(k) +
            " has lsn " + std::to_string(rec.lsn) + ", expected " +
            std::to_string(out.next_lsn) + " (journal gap)");
      }
      if (k > 0 && rec.kind == WalRecordKind::kSegmentHeader) {
        return Status::InvalidArgument("wal segment " + path +
                                       ": segment header mid-segment");
      }
      ++out.next_lsn;
    }
    WalSegmentInfo info;
    info.seq = files[i].first;
    info.first_lsn = header.lsn;
    info.path = path;
    info.records = records.size();
    info.bytes = seg.valid_bytes;
    out.segments.push_back(info);
    for (WalRecord& rec : records) out.records.push_back(std::move(rec));

    if (seg.bad) {  // last segment, torn tail
      out.truncated_records += 1;
      out.truncated_bytes += blob.size() - seg.valid_bytes;
      out.tail_detail =
          where + " — truncating " +
          std::to_string(blob.size() - seg.valid_bytes) + " bytes";
      if (!repair_torn_tail) {
        return Status::InvalidArgument(out.tail_detail +
                                       " — torn tail (repair disabled)");
      }
      // Synced before anything is written after it: a cut lost in a power
      // loss would leave the torn bytes before the next segment, where
      // they read as corruption.
      TBF_RETURN_NOT_OK(TruncateFile(path, seg.valid_bytes));
      out.segments.back().bytes = seg.valid_bytes;
    }
  }
  return out;
}

// ---- WalWriter -----------------------------------------------------------

WalWriter::WalWriter(std::string dir, WalIdentity identity,
                     WalFsyncPolicy policy, obs::MetricRegistry* metrics)
    : dir_(std::move(dir)),
      identity_(identity),
      policy_(policy) {
  if (metrics != nullptr) {
    appends_ = metrics->FindOrCreateCounter("tbf_wal_appends_total");
    fsyncs_ = metrics->FindOrCreateCounter("tbf_wal_fsyncs_total");
    bytes_ = metrics->FindOrCreateCounter("tbf_wal_bytes_total");
    rotations_ = metrics->FindOrCreateCounter("tbf_wal_rotations_total");
    compacted_ =
        metrics->FindOrCreateCounter("tbf_wal_compacted_segments_total");
    group_size_ = metrics->FindOrCreateHistogram("tbf_wal_group_size");
  }
}

WalWriter::~WalWriter() {
  if (!closed_) Close().ok();  // best effort
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& dir, const WalIdentity& identity,
    const WalFsyncPolicy& policy, obs::MetricRegistry* metrics) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create wal directory " + dir + ": " +
                           ec.message());
  }
  TBF_ASSIGN_OR_RETURN(WalScan scan, ScanWalDir(dir, /*repair=*/true));
  if (scan.has_identity && !(scan.identity == identity)) {
    return Status::FailedPrecondition(
        "wal directory " + dir +
        " belongs to a different run (identity mismatch)");
  }
  std::unique_ptr<WalWriter> writer(
      new WalWriter(dir, identity, policy, metrics));
  writer->next_lsn_ = scan.next_lsn;
  writer->segments_ = std::move(scan.segments);
  // A last segment holding only its header (a finished run's last
  // rotation) is continued under its own seq and LSN, so recovering a
  // finished directory adds no segment. Its header and entry are synced
  // again, as a fresh segment's are; it is never cut or rewritten, which
  // could lose the only segment that anchors the LSN chain.
  if (!writer->segments_.empty() && writer->segments_.back().records == 1) {
    const WalSegmentInfo& last = writer->segments_.back();
    TBF_ASSIGN_OR_RETURN(writer->file_,
                         AppendFile::OpenAt(last.path, last.bytes));
    TBF_RETURN_NOT_OK(writer->file_.Sync());
    TBF_RETURN_NOT_OK(FsyncDir(dir));
    writer->seq_ = last.seq;
    return writer;
  }
  // Any other last segment is synced before anything is written after it:
  // the scan may have read its tail from the page cache alone (a process
  // crash before its fsync), and a power loss dropping that tail later
  // would leave a gap below the LSNs written next.
  if (!writer->segments_.empty()) {
    TBF_RETURN_NOT_OK(SyncFile(writer->segments_.back().path));
  }
  // Otherwise start a fresh segment: appending into a repaired file would
  // re-open a tail we just certified, and a fresh header re-anchors the
  // LSN chain after a mid-rotation crash.
  const uint64_t seq =
      writer->segments_.empty() ? 0 : writer->segments_.back().seq + 1;
  TBF_RETURN_NOT_OK(writer->OpenSegment(seq));
  return writer;
}

Status WalWriter::OpenSegment(uint64_t seq) {
  const std::string path = dir_ + "/" + WalSegmentFileName(seq);
  WalRecord header;
  header.kind = WalRecordKind::kSegmentHeader;
  header.lsn = next_lsn_;
  header.segment_seq = seq;
  header.identity = identity_;
  std::string frame;
  AppendFrame(&frame, EncodeWalRecord(header));
  // The header and the directory entry are both synced, so the file (and
  // with it the LSN chain) survives power loss.
  Result<AppendFile> file = AppendFile::CreateDurable(path, frame);
  TBF_RETURN_NOT_OK(Poison(file.status()));
  file_ = std::move(file).MoveValueUnsafe();
  seq_ = seq;
  ++next_lsn_;
  if (bytes_ != nullptr) bytes_->Add(frame.size());

  WalSegmentInfo info;
  info.seq = seq;
  info.first_lsn = header.lsn;
  info.path = path;
  info.records = 1;
  info.bytes = frame.size();
  segments_.push_back(info);
  return Status::OK();
}

void WalWriter::SimulateTornCrash(uint64_t lsn) {
  // A crash loses the unflushed group plus the in-flight frame (Append
  // has framed it into pending_) at an arbitrary byte. The torn length,
  // keyed by the LSN, keeps the chaos drill reproducible. The bytes reach
  // the OS; the process is gone.
  const size_t torn =
      static_cast<size_t>((lsn * 2654435761ULL) % (pending_.size() + 1));
  file_.Append(std::string_view(pending_).substr(0, torn)).ok();
  pending_.clear();
  pending_records_ = 0;
  poisoned_ = true;
}

Status WalWriter::Poison(Status status) {
  if (!status.ok()) poisoned_ = true;
  return status;
}

Status WalWriter::Usable() const {
  if (!closed_ && !poisoned_) return Status::OK();
  return Status::FailedPrecondition(
      "wal writer is closed or poisoned by a previous failure");
}

Status WalWriter::Append(WalRecord* record) {
  TBF_RETURN_NOT_OK(Usable());
  record->lsn = next_lsn_;
  // Frame the record in place at the tail of the group buffer — an
  // 8-byte header placeholder, the payload, then patch <len><crc> once
  // the payload size is known. The hot path copies each record exactly
  // once and allocates nothing once the buffer is warmed up.
  if (pending_records_ == 0) group_opened_seconds_ = MonotonicSeconds();
  const size_t base = BeginFrame(&pending_);
  EncodeWalRecordTo(*record, &pending_);
  EndFrame(&pending_, base);
  const size_t frame_bytes = pending_.size() - base;

  const Status injected = TBF_FAULT_INJECT_AT("wal.append", record->lsn);
  if (!injected.ok()) {
    SimulateTornCrash(record->lsn);
    return injected;
  }

  ++next_lsn_;
  ++pending_records_;
  segments_.back().records += 1;
  if (appends_ != nullptr) appends_->Add(1);
  if (bytes_ != nullptr) bytes_->Add(frame_bytes);

  switch (policy_.kind) {
    case WalFsyncPolicy::Kind::kEveryRecord:
      return Commit(/*do_fsync=*/true);
    case WalFsyncPolicy::Kind::kNone:
      return Commit(/*do_fsync=*/false);
    case WalFsyncPolicy::Kind::kGroupCommit:
      if (pending_records_ >= policy_.max_records ||
          pending_.size() >= policy_.max_bytes ||
          MonotonicSeconds() - group_opened_seconds_ >=
              policy_.max_delay_seconds) {
        return Commit(/*do_fsync=*/true);
      }
      return Status::OK();
  }
  return Status::OK();
}

Status WalWriter::Commit(bool do_fsync) {
  if (pending_.empty() && (!do_fsync || records_since_fsync_ == 0)) {
    return Status::OK();
  }
  if (!pending_.empty()) {
    TBF_RETURN_NOT_OK(Poison(file_.Append(pending_)));
    segments_.back().bytes += pending_.size();
    records_since_fsync_ += pending_records_;
    pending_.clear();
    pending_records_ = 0;
  }
  if (do_fsync) {
    TBF_RETURN_NOT_OK(Poison(TBF_FAULT_INJECT("wal.fsync")));
    TBF_RETURN_NOT_OK(Poison(file_.Sync()));
    if (fsyncs_ != nullptr) fsyncs_->Add(1);
    if (group_size_ != nullptr && records_since_fsync_ > 0) {
      group_size_->Record(records_since_fsync_);
    }
    records_since_fsync_ = 0;
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  TBF_RETURN_NOT_OK(Usable());
  return Commit(/*do_fsync=*/true);
}

Status WalWriter::Rotate() {
  TBF_RETURN_NOT_OK(Sync());
  TBF_RETURN_NOT_OK(Poison(TBF_FAULT_INJECT_AT("wal.rotate", seq_ + 1)));
  TBF_RETURN_NOT_OK(Poison(file_.Close()));
  if (rotations_ != nullptr) rotations_->Add(1);
  return OpenSegment(seq_ + 1);
}

Status WalWriter::CompactBelow(uint64_t keep_from_lsn) {
  TBF_RETURN_NOT_OK(Usable());
  // A segment is fully covered when its successor starts at or below the
  // keep point (its own records all have smaller LSNs). The active
  // segment is never deleted. Oldest first, each removal synced before the
  // next: a power loss that kept an older segment but lost a newer one's
  // removal would leave a gap in the sequence.
  while (segments_.size() >= 2 && segments_[1].first_lsn <= keep_from_lsn) {
    TBF_RETURN_NOT_OK(RemoveFile(segments_.front().path));
    TBF_RETURN_NOT_OK(FsyncDir(dir_));
    segments_.erase(segments_.begin());
    if (compacted_ != nullptr) compacted_->Add(1);
  }
  return Status::OK();
}

Status WalWriter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  Status status = Status::OK();
  if (!poisoned_) status = Commit(/*do_fsync=*/true);
  const Status closed = file_.Close();
  return status.ok() ? closed : status;
}

}  // namespace tbf
