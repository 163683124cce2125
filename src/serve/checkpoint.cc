#include "serve/checkpoint.h"

#include <array>
#include <cstring>
#include <optional>
#include <type_traits>

#include "common/atomic_file.h"
#include "common/frames.h"

namespace tbf {

uint32_t FingerprintEventTrace(const EventTrace& trace) {
  // Byte-stream identical to CRC-ing each field separately (CRC chains
  // across calls), but batching fields into 64 KiB chunks keeps the
  // per-call overhead off the per-event path: durable replays fingerprint
  // the whole trace on every run, so this is sized for 100k+ events.
  uint32_t crc = 0;
  std::string chunk;
  constexpr size_t kFlushAt = size_t{1} << 16;
  chunk.reserve(kFlushAt + 64);
  const auto add_u64 = [&chunk](uint64_t v) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
    chunk.append(bytes, 8);
  };
  const auto add_double = [&add_u64](double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    add_u64(bits);
  };
  add_double(trace.region.min_x);
  add_double(trace.region.min_y);
  add_double(trace.region.max_x);
  add_double(trace.region.max_y);
  add_u64(trace.events.size());
  for (const TimedEvent& event : trace.events) {
    add_u64(static_cast<uint64_t>(event.kind));
    add_double(event.time);
    add_u64(event.id.size());
    chunk += event.id;
    add_double(event.location.x);
    add_double(event.location.y);
    if (chunk.size() >= kFlushAt) {
      crc = Crc32(chunk, crc);
      chunk.clear();
    }
  }
  if (!chunk.empty()) crc = Crc32(chunk, crc);
  return crc;
}

namespace {

constexpr std::string_view kMagic = "TBF-CKPT";
constexpr uint32_t kCheckpointVersion = 5;
// Header token of the retired v1-v3 text format.
constexpr std::string_view kTextMagic = "TBFCKPT1 ";

// Record kinds of a v5 file; docs/ROBUSTNESS.md has the catalog.
enum Rec : uint8_t {
  kHeader, kIdentity, kCursor, kReport, kEpoch, kTask, kQuarantine, kServer,
  kRng, kSlot, kFree, kWorker, kLedger, kSpend, kCounter, kGauge, kHistogram,
  kEnd, kNumRecs,
};
constexpr std::array<const char*, kNumRecs> kRecNames = {
    "header", "identity", "cursor", "report", "epoch", "task",
    "quarantine", "server", "rng", "slot", "free", "worker",
    "ledger", "spend", "counter", "gauge", "histogram", "end"};

constexpr uint32_t Bit(int kind) { return 1u << kind; }
constexpr uint32_t kRequired = Bit(kHeader) | Bit(kIdentity) | Bit(kCursor) |
                               Bit(kReport) | Bit(kServer) | Bit(kRng) |
                               Bit(kEnd);
constexpr uint32_t kSingletons = kRequired | Bit(kLedger);
constexpr uint8_t kSpendEpoch = 0;
constexpr uint8_t kSpendLifetime = 1;

// Field codecs. Each record's schema is one function template over an
// `io` that FieldWriter implements by appending the fields and
// FieldReader by parsing into them, so the two directions cannot drift.
// Integers take their own width (u8/u32/u64, a LeafCode 16 bytes), bools
// a 0/1 byte, doubles their IEEE-754 bits, strings <len:u32><bytes>; a
// Status is <code:u32><message:str>, an optional string a 0/1 byte then
// the string.
class FieldWriter {
 public:
  explicit FieldWriter(std::string* out) : out_(out) {}

  template <typename... T>
  Status operator()(const T&... fields) {
    (Put(fields), ...);
    return Status::OK();
  }

 private:
  template <typename T>
  void Put(const T& v) {
    if constexpr (sizeof(T) == 1) {  // bool or u8
      wire::PutU8(out_, static_cast<uint8_t>(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      wire::PutF64(out_, v);
    } else if constexpr (sizeof(T) == 4) {
      wire::PutU32(out_, static_cast<uint32_t>(v));
    } else if constexpr (std::is_same_v<T, LeafCode>) {
      wire::PutU128(out_, v);
    } else {
      static_assert(std::is_integral_v<T> && sizeof(T) == 8);
      wire::PutU64(out_, static_cast<uint64_t>(v));
    }
  }
  void Put(const std::string& s) { wire::PutStr(out_, s); }
  void Put(const Status& s) {
    Put(static_cast<uint32_t>(s.code()));
    Put(s.message());
  }
  void Put(const std::optional<std::string>& s) {
    Put(s.has_value());
    if (s) Put(*s);
  }
  template <size_t N>
  void Put(const std::array<uint64_t, N>& values) {
    for (const uint64_t v : values) Put(v);
  }

  std::string* out_;
};

class FieldReader {
 public:
  FieldReader(std::string_view payload, const char* what)
      : r_(payload, what), what_(what) {}

  template <typename... T>
  Status operator()(T&... fields) {
    Status status = Status::OK();
    static_cast<void>((... && (status = Get(fields)).ok()));
    return status;
  }
  bool AtEnd() const { return r_.AtEnd(); }

 private:
  template <typename T>
  Status Get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      TBF_ASSIGN_OR_RETURN(const uint8_t b, r_.U8());
      if (b > 1) return Bad("flag byte " + std::to_string(b) + " is not 0/1");
      v = b == 1;
    } else if constexpr (sizeof(T) == 1) {
      TBF_ASSIGN_OR_RETURN(v, r_.U8());
    } else if constexpr (std::is_floating_point_v<T>) {
      TBF_ASSIGN_OR_RETURN(v, r_.F64());
    } else if constexpr (sizeof(T) == 4) {
      TBF_ASSIGN_OR_RETURN(const uint32_t u, r_.U32());
      v = static_cast<T>(u);
    } else if constexpr (std::is_same_v<T, LeafCode>) {
      TBF_ASSIGN_OR_RETURN(v, r_.U128());
    } else {
      TBF_ASSIGN_OR_RETURN(const uint64_t u, r_.U64());
      v = static_cast<T>(u);
    }
    return Status::OK();
  }
  Status Get(std::string& s) {
    TBF_ASSIGN_OR_RETURN(s, r_.Str());
    return Status::OK();
  }
  Status Get(Status& s) {
    uint32_t code = 0;
    std::string message;
    TBF_RETURN_NOT_OK(operator()(code, message));
    if (code > static_cast<uint32_t>(StatusCode::kAborted)) {
      return Bad("status code " + std::to_string(code) + " out of range");
    }
    s = code == 0 ? Status::OK()
                  : Status(static_cast<StatusCode>(code), std::move(message));
    return Status::OK();
  }
  Status Get(std::optional<std::string>& s) {
    bool present = false;
    TBF_RETURN_NOT_OK(Get(present));
    if (present) return Get(s.emplace());
    s.reset();
    return Status::OK();
  }
  template <size_t N>
  Status Get(std::array<uint64_t, N>& values) {
    for (uint64_t& v : values) TBF_RETURN_NOT_OK(Get(v));
    return Status::OK();
  }
  Status Bad(const std::string& why) const {
    return Status::InvalidArgument(std::string(what_) + ": " + why);
  }

  wire::ByteReader r_;
  const char* what_;
};

// Record schemas; `C` is ReplayCheckpoint (or a row type), const when
// writing.
template <typename Io, typename C>
Status IdentityFields(Io& io, C& c) {
  return io(c.trace_fingerprint, c.num_shards, c.epoch_seconds, c.server_seed,
            c.obfuscation_seed);
}
template <typename Io, typename C>
Status CursorFields(Io& io, C& c) {
  return io(c.next_event, c.arrivals_obfuscated, c.next_task_slot,
            c.wal_next_lsn);
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
  return io(s.assigned_tasks, s.tree_epoch);
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

// Decodes one record per call, enforcing the file grammar: header first,
// end last, singletons once, spend rows after the ledger row.
class CheckpointDecoder {
 public:
  Status Decode(std::string_view payload) {
    if (payload.empty()) return Status::InvalidArgument("empty record");
    const auto kind = static_cast<uint8_t>(payload[0]);
    if (kind >= kNumRecs) {
      return Status::InvalidArgument("unknown record kind " +
                                     std::to_string(kind));
    }
    const std::string name = std::string(kRecNames[kind]) + " record";
    const auto bad = [&name](const std::string& why) {
      return Status::InvalidArgument(name + ": " + why);
    };
    if (records_ == 0 && kind != kHeader) {
      return bad("the first record must be the checkpoint header");
    }
    if ((seen_ & Bit(kEnd)) != 0) return bad("follows the end record");
    if ((kSingletons & seen_ & Bit(kind)) != 0) return bad("duplicate");
    FieldReader io(payload, name.c_str());
    uint8_t kind_byte = 0;
    TBF_RETURN_NOT_OK(io(kind_byte));
    TBF_RETURN_NOT_OK(DecodeFields(static_cast<Rec>(kind), io));
    if (!io.AtEnd()) return bad("trailing bytes after a complete record");
    seen_ |= Bit(kind);
    ++records_;
    return Status::OK();
  }

  Status Finish() const {
    if (records_ == 0) return Status::InvalidArgument("checkpoint: empty file");
    std::string missing;
    for (int kind = 0; kind < kNumRecs; ++kind) {
      if ((kRequired & ~seen_ & Bit(kind)) == 0) continue;
      missing += (missing.empty() ? "" : ", ") + std::string(kRecNames[kind]);
    }
    if (missing.empty()) return Status::OK();
    return Status::InvalidArgument(
        "checkpoint: missing required record(s) " + missing + " after " +
        std::to_string(records_) + " records — truncated or corrupt file");
  }

  ReplayCheckpoint Take() { return std::move(c_); }

 private:
  Status DecodeFields(Rec kind, FieldReader& io) {
    const auto bad = [kind](const std::string& why) {
      return Status::InvalidArgument(std::string(kRecNames[kind]) +
                                     " record: " + why);
    };
    ShardedServerState& server = c_.server;
    switch (kind) {
      case kHeader: {
        std::string magic;
        uint32_t version = 0;
        TBF_RETURN_NOT_OK(io(magic, version));
        if (magic != kMagic) return bad("bad magic '" + magic + "'");
        if (version != kCheckpointVersion) {
          return bad("unsupported version " + std::to_string(version) +
                     " (this build reads v5)");
        }
        c_.version = static_cast<int>(version);
        return Status::OK();
      }
      case kIdentity: return IdentityFields(io, c_);
      case kCursor: return CursorFields(io, c_);
      case kReport: return ReportFields(io, c_.report);
      case kEpoch: return EpochFields(io, c_.per_epoch.emplace_back());
      case kTask: return TaskFields(io, c_.task_outcomes.emplace_back());
      case kQuarantine:
        return QuarantineFields(io, c_.quarantined_events.emplace_back());
      case kServer: return ServerFields(io, server);
      case kRng: return io(server.rng_state);
      case kSlot: return io(server.worker_by_index_id.emplace_back());
      case kFree: return io(server.free_index_ids.emplace_back());
      case kWorker: return WorkerFields(io, server.workers.emplace_back());
      case kLedger: return LedgerFields(io, server.ledger.emplace());
      case kSpend: {
        if (!server.ledger) return bad("precedes the ledger record");
        uint8_t scope = 0;
        TBF_RETURN_NOT_OK(io(scope));
        if (scope != kSpendEpoch && scope != kSpendLifetime) {
          return bad("scope must be 0 (epoch) or 1 (lifetime)");
        }
        auto& spends = scope == kSpendEpoch ? server.ledger->epoch_spent
                                            : server.ledger->lifetime_spent;
        auto& [user, eps] = spends.emplace_back();
        return io(user, eps);
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
      case kEnd: {
        uint64_t records = 0;
        TBF_RETURN_NOT_OK(io(records));
        if (records == records_) return Status::OK();
        return bad("counts " + std::to_string(records) +
                   " records before it, the file has " +
                   std::to_string(records_));
      }
      case kNumRecs: break;
    }
    return Status::OK();
  }

  ReplayCheckpoint c_;
  uint64_t records_ = 0;
  uint32_t seen_ = 0;
};

}  // namespace

std::string SerializeReplayCheckpoint(const ReplayCheckpoint& c) {
  const ShardedServerState& server = c.server;
  const size_t rows = c.per_epoch.size() + c.task_outcomes.size() +
                      c.quarantined_events.size() +
                      server.worker_by_index_id.size() +
                      server.free_index_ids.size() + server.workers.size() +
                      (server.ledger ? server.ledger->epoch_spent.size() +
                                           server.ledger->lifetime_spent.size()
                                     : 0);
  std::string out;
  out.reserve(64 * rows + 1024 * (c.metrics.histograms.size() + 1));
  uint64_t records = 0;
  // Frames one record in place (common/frames.h): the payload is the
  // kind byte, then whatever `fields` writes.
  const auto add = [&](Rec kind, const auto& fields) {
    const size_t frame = BeginFrame(&out);
    out.push_back(static_cast<char>(kind));
    FieldWriter io(&out);
    fields(io);
    EndFrame(&out, frame);
    ++records;
  };
  add(kHeader, [](FieldWriter& io) { io(std::string(kMagic), kCheckpointVersion); });
  add(kIdentity, [&](FieldWriter& io) { IdentityFields(io, c); });
  add(kCursor, [&](FieldWriter& io) { CursorFields(io, c); });
  add(kReport, [&](FieldWriter& io) { ReportFields(io, c.report); });
  for (const EpochStats& e : c.per_epoch) {
    add(kEpoch, [&](FieldWriter& io) { EpochFields(io, e); });
  }
  for (const TaskOutcome& t : c.task_outcomes) {
    add(kTask, [&](FieldWriter& io) { TaskFields(io, t); });
  }
  for (const QuarantineRecord& q : c.quarantined_events) {
    add(kQuarantine, [&](FieldWriter& io) { QuarantineFields(io, q); });
  }
  add(kServer, [&](FieldWriter& io) { ServerFields(io, server); });
  add(kRng, [&](FieldWriter& io) { io(server.rng_state); });
  for (const std::string& id : server.worker_by_index_id) {
    add(kSlot, [&](FieldWriter& io) { io(id); });
  }
  for (const int id : server.free_index_ids) {
    add(kFree, [&](FieldWriter& io) { io(id); });
  }
  for (const ShardedServerState::Worker& w : server.workers) {
    add(kWorker, [&](FieldWriter& io) { WorkerFields(io, w); });
  }
  if (server.ledger) {
    const EpochBudgetLedger::State& ledger = *server.ledger;
    add(kLedger, [&](FieldWriter& io) { LedgerFields(io, ledger); });
    for (const auto& [user, eps] : ledger.epoch_spent) {
      add(kSpend, [&](FieldWriter& io) { io(kSpendEpoch, user, eps); });
    }
    for (const auto& [user, eps] : ledger.lifetime_spent) {
      add(kSpend, [&](FieldWriter& io) { io(kSpendLifetime, user, eps); });
    }
  }
  for (const obs::CounterSample& sample : c.metrics.counters) {
    add(kCounter, [&](FieldWriter& io) { io(sample.name, sample.value); });
  }
  for (const obs::GaugeSample& sample : c.metrics.gauges) {
    add(kGauge, [&](FieldWriter& io) { io(sample.name, sample.value); });
  }
  for (const obs::HistogramSample& sample : c.metrics.histograms) {
    add(kHistogram, [&](FieldWriter& io) { HistogramFields(io, sample); });
  }
  add(kEnd, [records](FieldWriter& io) { io(records); });
  return out;
}

Result<ReplayCheckpoint> ParseReplayCheckpoint(const std::string& bytes) {
  if (std::string_view(bytes).substr(0, kTextMagic.size()) == kTextMagic) {
    return Status::InvalidArgument(
        "checkpoint: text-format (v1-v3) file; this build reads binary v5 "
        "checkpoints only");
  }
  CheckpointDecoder decoder;
  const FrameWalk walk = WalkFrames(
      bytes, [&decoder](std::string_view p) { return decoder.Decode(p); });
  if (walk.bad) return Status::InvalidArgument("checkpoint " + walk.bad_detail);
  TBF_RETURN_NOT_OK(decoder.Finish());
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

}  // namespace tbf
