#include "serve/checkpoint.h"

#include <algorithm>
#include <array>
#include <optional>

#include "common/atomic_file.h"
#include "common/frames.h"

namespace tbf {

uint32_t FingerprintEventTrace(const EventTrace& trace) {
  // Byte-stream identical to CRC-ing each field separately (CRC chains
  // across calls), but batching fields into 64 KiB chunks keeps the
  // per-call overhead off the per-event path: durable replays fingerprint
  // the whole trace on every run, so this is sized for 100k+ events.
  // Every field is a u64 or an f64; an id is its u64 length, then bytes.
  constexpr size_t kChunkBytes = size_t{1} << 16;
  uint32_t crc = 0;
  std::string chunk;
  size_t next = 0;
  do {
    chunk.clear();
    {
      FieldWriter io(&chunk);
      if (next == 0) {
        io(trace.region.min_x, trace.region.min_y, trace.region.max_x,
           trace.region.max_y, static_cast<uint64_t>(trace.events.size()));
      }
      for (; next < trace.events.size() && io.size() < kChunkBytes; ++next) {
        const TimedEvent& event = trace.events[next];
        io(static_cast<uint64_t>(event.kind), event.time,
           static_cast<uint64_t>(event.id.size()));
        io.Bytes(event.id);
        io(event.location.x, event.location.y);
      }
    }
    crc = Crc32(chunk, crc);
  } while (next < trace.events.size());
  return crc;
}

namespace {

constexpr std::string_view kMagic = "TBF-CKPT";
constexpr uint32_t kCheckpointVersion = 8;
// Header token of the retired v1-v3 text format.
constexpr std::string_view kTextMagic = "TBFCKPT1 ";

// Record kinds of a v8 file; docs/ROBUSTNESS.md has the catalog. Free,
// worker and spend records are table records (common/frames.h).
enum Rec : uint8_t {
  kHeader, kIdentity, kCursor, kReport, kServer, kRng, kFree, kWorker,
  kLedger, kSpend, kCounter, kGauge, kHistogram, kEnd, kNumRecs,
};
constexpr std::array<const char*, kNumRecs> kRecNames = {
    "header", "identity", "cursor", "report", "server", "rng", "free",
    "worker", "ledger", "spend", "counter", "gauge", "histogram", "end"};

constexpr uint32_t Bit(int kind) { return 1u << kind; }
constexpr uint32_t kRequired = Bit(kHeader) | Bit(kIdentity) | Bit(kCursor) |
                               Bit(kReport) | Bit(kServer) | Bit(kRng) |
                               Bit(kEnd);
constexpr uint32_t kSingletons = kRequired | Bit(kLedger);
constexpr ArtifactFormat kFormat = {"checkpoint", kMagic, kCheckpointVersion,
                                     kRecNames};
constexpr uint8_t kSpendEpoch = 0;
constexpr uint8_t kSpendLifetime = 1;

// Record schemas; `C` is ReplayCheckpoint (or a row type, or the
// WalIdentity of an outcome log's header), const when writing.
template <typename Io, typename C>
Status IdentityFields(Io& io, C& c) {
  return io(c.trace_fingerprint, c.num_shards, c.epoch_seconds, c.server_seed,
            c.obfuscation_seed);
}
template <typename Io, typename C>
Status CursorFields(Io& io, C& c) {
  return io(c.next_event, c.arrivals_obfuscated, c.next_task_slot,
            c.wal_next_lsn, c.outcome_log_bytes, c.epoch_rows,
            c.quarantine_rows);
}
template <typename Io, typename R>
Status ReportFields(Io& io, R& r) {
  return io(r.registered, r.assigned, r.unassigned, r.denied, r.shed,
            r.quarantined, r.missed_departures, r.processed_events,
            r.faults_dropped, r.faults_duplicated, r.faults_reordered,
            r.faults_stalled, r.checkpoints_written);
}
template <typename Io, typename E>
Status EpochFields(Io& io, E& e) {
  return io(e.epoch, e.worker_arrivals, e.task_arrivals, e.departures,
            e.assigned, e.unassigned, e.denied, e.obfuscate_seconds,
            e.dispatch_seconds, e.epsilon_spent, e.denied_epoch_budget,
            e.denied_lifetime_budget, e.shed, e.quarantined);
}
template <typename Io, typename T>
Status TaskFields(Io& io, T& t) {
  return io(t.task_id, t.status, t.worker, t.reported_tree_distance);
}
template <typename Io, typename Q>
Status QuarantineFields(Io& io, Q& q) {
  return io(q.event_index, q.id, q.cause);
}
template <typename Io, typename S>
Status ServerFields(Io& io, S& s) {
  return io(s.assigned_tasks, s.tree_epoch, s.pool_size);
}
template <typename Io, typename W>
Status WorkerFields(Io& io, W& w) {
  return io(w.id, w.code, w.index_id, w.shard);
}
template <typename Io, typename L>
Status LedgerFields(Io& io, L& l) {
  return io(l.epoch, l.totals.epsilon_spent, l.totals.charges,
            l.totals.denied_epoch, l.totals.denied_lifetime);
}
template <typename Io, typename H>
Status HistogramFields(Io& io, H& h) {
  return io(h.name, h.count, h.sum, h.buckets);
}

// Reads each record's own fields (the shared grammar in common/frames.h
// reads the header's magic and version and checks the end count) and
// enforces the rest of the checkpoint grammar: singletons once, spend
// rows after the ledger row, every required record present.
class CheckpointDecoder {
 public:
  Status Visit(uint8_t kind, FieldReader& io) {
    if ((kSingletons & seen_ & Bit(kind)) != 0) return io.Refuse("duplicate");
    TBF_RETURN_NOT_OK(DecodeFields(static_cast<Rec>(kind), io));
    seen_ |= Bit(kind);
    return Status::OK();
  }

  Status Finish(uint64_t records) const {
    std::string missing;
    for (int kind = 0; kind < kNumRecs; ++kind) {
      if ((kRequired & ~seen_ & Bit(kind)) == 0) continue;
      missing += (missing.empty() ? "" : ", ") + std::string(kRecNames[kind]);
    }
    if (missing.empty()) return Status::OK();
    return Status::InvalidArgument(
        "checkpoint: missing required record(s) " + missing + " after " +
        std::to_string(records) + " records — truncated or corrupt file");
  }

  ReplayCheckpoint Take() { return std::move(c_); }

 private:
  Status DecodeFields(Rec kind, FieldReader& io) {
    ShardedServerState& server = c_.server;
    switch (kind) {
      case kHeader:
        c_.version = static_cast<int>(kCheckpointVersion);
        return Status::OK();
      case kIdentity: return IdentityFields(io, c_);
      case kCursor: return CursorFields(io, c_);
      case kReport: return ReportFields(io, c_.report);
      case kServer: return ServerFields(io, server);
      case kRng: return io(server.rng_state);
      case kFree:
        return io.Rows("free", server.free_index_ids.size(), [&] {
          return io(server.free_index_ids.emplace_back());
        });
      case kWorker:
        return io.Rows("worker", server.workers.size(), [&] {
          return WorkerFields(io, server.workers.emplace_back());
        });
      case kLedger: return LedgerFields(io, server.ledger.emplace());
      case kSpend: {
        if (!server.ledger) return io.Refuse("precedes the ledger record");
        EpochBudgetLedger::State& ledger = *server.ledger;
        return io.Rows(
            "spend", ledger.epoch_spent.size() + ledger.lifetime_spent.size(),
            [&]() -> Status {
              uint8_t scope = 0;
              TBF_RETURN_NOT_OK(io(scope));
              if (scope != kSpendEpoch && scope != kSpendLifetime) {
                return io.Refuse("scope must be 0 (epoch) or 1 (lifetime)");
              }
              auto& spends = scope == kSpendEpoch ? ledger.epoch_spent
                                                  : ledger.lifetime_spent;
              auto& [user, eps] = spends.emplace_back();
              return io(user, eps);
            });
      }
      case kCounter: {
        obs::CounterSample& sample = c_.metrics.counters.emplace_back();
        return io(sample.name, sample.value);
      }
      case kGauge: {
        obs::GaugeSample& sample = c_.metrics.gauges.emplace_back();
        return io(sample.name, sample.value);
      }
      case kHistogram:
        return HistogramFields(io, c_.metrics.histograms.emplace_back());
      case kEnd:
      case kNumRecs: break;
    }
    return Status::OK();
  }

  ReplayCheckpoint c_;
  uint32_t seen_ = 0;
};

// The outcome log (see checkpoint.h): the shared header carrying the run
// identity, then epoch, task and quarantine rows in the schemas above.
enum LogRec : uint8_t { kLogHeader, kLogEpoch, kLogTask, kLogQuarantine,
                        kNumLogRecs };
constexpr std::array<const char*, kNumLogRecs> kLogRecNames = {
    "header", "epoch", "task", "quarantine"};
constexpr ArtifactFormat kLogFormat = {"outcome log", "TBF-OLOG", 1,
                                       kLogRecNames, /*has_end=*/false};

}  // namespace

WalIdentity IdentityOf(const ReplayCheckpoint& c) {
  WalIdentity identity;
  identity.trace_fingerprint = c.trace_fingerprint;
  identity.num_shards = c.num_shards;
  identity.epoch_seconds = c.epoch_seconds;
  identity.server_seed = c.server_seed;
  identity.obfuscation_seed = c.obfuscation_seed;
  return identity;
}

std::string SerializeReplayCheckpoint(const ReplayCheckpoint& c) {
  const ShardedServerState& server = c.server;
  const size_t rows = server.free_index_ids.size() + server.workers.size() +
                      (server.ledger ? server.ledger->epoch_spent.size() +
                                           server.ledger->lifetime_spent.size()
                                     : 0);
  std::string out;
  out.reserve(64 * rows + 1024 * (c.metrics.histograms.size() + 1));
  ArtifactWriter file(kFormat, &out);
  file.Add(kIdentity, [&](FieldWriter& io) { IdentityFields(io, c); });
  file.Add(kCursor, [&](FieldWriter& io) { CursorFields(io, c); });
  file.Add(kReport, [&](FieldWriter& io) { ReportFields(io, c.report); });
  file.Add(kServer, [&](FieldWriter& io) { ServerFields(io, server); });
  file.Add(kRng, [&](FieldWriter& io) { io(server.rng_state); });
  file.AddTable(kFree, server.free_index_ids.size(),
                [&](FieldWriter& io, size_t i) {
                  io(server.free_index_ids[i]);
                });
  file.AddTable(kWorker, server.workers.size(),
                [&](FieldWriter& io, size_t i) {
                  WorkerFields(io, server.workers[i]);
                });
  if (server.ledger) {
    const EpochBudgetLedger::State& ledger = *server.ledger;
    file.Add(kLedger, [&](FieldWriter& io) { LedgerFields(io, ledger); });
    // Epoch rows, then lifetime rows, each in first-charge order.
    const size_t epoch_rows = ledger.epoch_spent.size();
    file.AddTable(kSpend, epoch_rows + ledger.lifetime_spent.size(),
                  [&](FieldWriter& io, size_t i) {
                    const bool epoch = i < epoch_rows;
                    const auto& [user, eps] =
                        epoch ? ledger.epoch_spent[i]
                              : ledger.lifetime_spent[i - epoch_rows];
                    io(epoch ? kSpendEpoch : kSpendLifetime, user, eps);
                  });
  }
  for (const obs::CounterSample& sample : c.metrics.counters) {
    file.Add(kCounter, [&](FieldWriter& io) { io(sample.name, sample.value); });
  }
  for (const obs::GaugeSample& sample : c.metrics.gauges) {
    file.Add(kGauge, [&](FieldWriter& io) { io(sample.name, sample.value); });
  }
  for (const obs::HistogramSample& sample : c.metrics.histograms) {
    file.Add(kHistogram, [&](FieldWriter& io) { HistogramFields(io, sample); });
  }
  file.Finish();
  return out;
}

Result<ReplayCheckpoint> ParseReplayCheckpoint(const std::string& bytes) {
  if (std::string_view(bytes).substr(0, kTextMagic.size()) == kTextMagic) {
    return Status::InvalidArgument(
        "checkpoint: text-format (v1-v3) file; this build reads binary v8 "
        "checkpoints only");
  }
  CheckpointDecoder decoder;
  ArtifactReader file(kFormat);
  TBF_RETURN_NOT_OK(file.Read(bytes, [&decoder](uint8_t kind, FieldReader& io) {
    return decoder.Visit(kind, io);
  }));
  TBF_RETURN_NOT_OK(decoder.Finish(file.records()));
  return decoder.Take();
}

Status WriteReplayCheckpointFile(const ReplayCheckpoint& checkpoint,
                                 const std::string& path) {
  return WriteFileAtomic(path, SerializeReplayCheckpoint(checkpoint),
                         "checkpoint");
}

Result<ReplayCheckpoint> ReadReplayCheckpointFile(const std::string& path) {
  TBF_ASSIGN_OR_RETURN(const std::string bytes,
                       ReadFileToString(path, "checkpoint"));
  return ParseReplayCheckpoint(bytes);
}

std::string OutcomeLogHeader(const WalIdentity& identity) {
  std::string out;
  ArtifactWriter(kLogFormat, &out,
                 [&](FieldWriter& io) { IdentityFields(io, identity); });
  return out;
}

void AppendOutcomeRows(std::span<const EpochStats> epochs,
                       std::span<const TaskOutcome> tasks,
                       std::span<const QuarantineRecord> quarantines,
                       std::string* out) {
  for (const EpochStats& e : epochs) {
    AppendRecord(out, kLogEpoch, [&](FieldWriter& io) { EpochFields(io, e); });
  }
  for (const TaskOutcome& t : tasks) {
    AppendRecord(out, kLogTask, [&](FieldWriter& io) { TaskFields(io, t); });
  }
  for (const QuarantineRecord& q : quarantines) {
    AppendRecord(out, kLogQuarantine,
                 [&](FieldWriter& io) { QuarantineFields(io, q); });
  }
}

std::vector<Status> ParseOutcomeRows(std::string_view log,
                                     std::span<ReplayCheckpoint> checkpoints) {
  uint64_t length = 0;
  for (const ReplayCheckpoint& c : checkpoints) {
    length = std::max(length, c.outcome_log_bytes);
  }
  // One walk, as far as the longest prefix reaches. The boundary after a
  // record (the bytes before it and the rows of each kind) is noted when
  // the next one is visited, and after the last record accepted; a record
  // refused after its visit may leave a row behind that no boundary counts.
  struct Boundary {
    uint64_t bytes = 0;
    size_t epochs = 0, tasks = 0, quarantines = 0;
  };
  std::vector<Boundary> ends;
  std::optional<WalIdentity> identity;
  ReplayCheckpoint rows;
  ArtifactReader file(kLogFormat);
  const auto boundary = [&] {
    ends.push_back({file.bytes(), rows.per_epoch.size(),
                    rows.task_outcomes.size(), rows.quarantined_events.size()});
  };
  const Status stop = file.Read(
      log.substr(0, length), [&](uint8_t kind, FieldReader& io) -> Status {
        if (file.records() > 0) boundary();
        switch (static_cast<LogRec>(kind)) {
          case kLogHeader:
            if (file.records() > 0) return io.Refuse("duplicate");
            return IdentityFields(io, identity.emplace());
          case kLogEpoch: return EpochFields(io, rows.per_epoch.emplace_back());
          case kLogTask: return TaskFields(io, rows.task_outcomes.emplace_back());
          case kLogQuarantine:
            return QuarantineFields(io, rows.quarantined_events.emplace_back());
          case kNumLogRecs: break;
        }
        return Status::OK();
      });
  if (file.records() > 0 && (ends.empty() || ends.back().bytes < file.bytes())) {
    boundary();
  }

  // Each checkpoint's covered length must be a boundary of that walk.
  std::vector<Status> read;
  ReplayCheckpoint* restore = nullptr;
  Boundary restored;
  for (ReplayCheckpoint& c : checkpoints) {
    const uint64_t covered = c.outcome_log_bytes;
    const auto at = std::lower_bound(
        ends.begin(), ends.end(), covered,
        [](const Boundary& end, uint64_t n) { return end.bytes < n; });
    if (covered == 0) {
      read.push_back(Status::OK());
    } else if (!ends.empty() && ends.front().bytes <= covered &&
               !(*identity == IdentityOf(c))) {  // the header was read
      read.push_back(Status::FailedPrecondition(
          "outcome log: belongs to a different run than the checkpoint "
          "(identity mismatch)"));
    } else if (log.size() < covered) {
      read.push_back(Status::InvalidArgument(
          "outcome log: holds " + std::to_string(log.size()) +
          " bytes, fewer than the " + std::to_string(covered) +
          " the checkpoint covers"));
    } else if (at != ends.end() && at->bytes == covered) {
      read.push_back(Status::OK());
    } else if (at == ends.end() && !stop.ok()) {
      read.push_back(stop);
    } else {
      read.push_back(Status::InvalidArgument(
          "outcome log: the checkpoint's length " + std::to_string(covered) +
          " cuts a record, not at a boundary"));
    }
    if (read.back().ok()) {
      restore = &c;
      restored = covered == 0 ? Boundary{} : *at;
    }
  }
  if (restore == nullptr) return read;
  restore->per_epoch = std::move(rows.per_epoch);
  restore->per_epoch.resize(restored.epochs);
  restore->task_outcomes = std::move(rows.task_outcomes);
  restore->task_outcomes.resize(restored.tasks);
  restore->quarantined_events = std::move(rows.quarantined_events);
  restore->quarantined_events.resize(restored.quarantines);
  return read;
}

Status ParseOutcomeRows(std::string_view log, ReplayCheckpoint* checkpoint) {
  return ParseOutcomeRows(log, std::span(checkpoint, 1)).front();
}

}  // namespace tbf
