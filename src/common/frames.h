// The one binary frame format and the one field codec every on-disk
// artifact is written in: journal segments (serve/wal.h), replay
// checkpoints and their outcome log (serve/checkpoint.h) and tree
// snapshots (hst/snapshot.h) are all streams of
//
//   frame   := <len:u32> <crc:u32> <payload: len bytes>
//   payload := <kind:u8> <fields>
//
// with the CRC-32 below over the payload bytes. This module owns that
// format: the CRC, the in-place frame writer, the frame walker (with its
// payload cap and record-precise messages), the field codec and the file
// grammar checkpoints and snapshots share.
//
// CRC. Crc32 folds 64-byte blocks with carry-less multiplies (PCLMULQDQ)
// when the CPU has them, checked once at run time; the slice-by-8 table
// serves the tail, buffers under 64 bytes and every other CPU. Both give
// the same value.
//
// Field codec. A record's layout is written once, as a schema: a function
// template over an `io` that lists the record's fields in order,
//
//   template <typename Io, typename R>
//   Status CursorFields(Io& io, R& r) { return io(r.next_event, r.lsn); }
//
// FieldWriter runs it by appending the fields (R is const), FieldReader
// by parsing into them, so the two directions cannot drift. Encodings:
// integers take their own width (u8/u32/u64, little-endian; a 128-bit
// leaf code is its low u64 then its high u64), a bool is a 0/1 byte, a
// FlagByte packs several bools into one byte, doubles are their IEEE-754
// bit patterns, strings <len:u32><bytes>, a Status <code:u32><message>,
// an optional string a 0/1 byte then the string. A schema states its
// checks with `io.Check`, which only the reader enforces: the writer
// writes what it is given, the reader decides. Every refusal is an
// InvalidArgument naming the record; none crashes on corrupt input.
//
// File grammar (ArtifactFormat, ArtifactWriter, ArtifactReader). A
// checkpoint or snapshot is one record stream whose first record (kind 0)
// is the header — <magic:str><version:u32>, then the artifact's own
// header fields — and whose last kind is the end record <records before
// it:u64>, which nothing follows. The end count makes a file cut at a
// frame boundary fail too. An append-only log (the outcome log) has the
// same header and no end record: it grows, and what makes a prefix of it
// whole is recorded elsewhere.
//
// Table records. Many rows of one schema (a snapshot's points, a
// checkpoint's worker rows) are written as a table: consecutive records of
// the table's kind, each <kind:u8> then whole rows back to back, at most
// kTableRecordBytes of them (a larger row gets a record alone), read until
// the payload ends. ArtifactWriter::AddTable writes them; FieldReader::Rows
// reads them row by row, naming the row in a refusal and refusing a
// record with no rows, which no writer produces.
//
// tools/tbf_frames.py mirrors the frames and fields for the stdlib
// Python validators.

#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "common/result.h"

namespace tbf {

/// \brief CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) —
/// bit-compatible with zlib's crc32() and Python's binascii.crc32. Pass a
/// previous return value as `crc` to checksum incrementally. Folds with
/// PCLMULQDQ where the CPU has it (see the file comment).
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

/// A frame claiming a larger payload than this is garbage (torn or
/// corrupt), not a real record: the cap keeps a corrupted length field
/// from driving a huge allocation. Writers split anything bigger.
constexpr size_t kMaxFramePayload = size_t{1} << 22;

/// A table record (see the file comment) holds whole rows and at most
/// this many row bytes, far below the frame cap.
constexpr size_t kTableRecordBytes = size_t{1} << 16;

/// \brief One bit of a FlagByte: `mask` selects the bit, `value` is the
/// bool it carries (`const bool` when writing, `bool` when reading).
template <typename B>
struct Flag {
  uint8_t mask;
  B& value;
};
template <typename B>
Flag(uint8_t, B&) -> Flag<B>;

/// \brief A packed flag byte carrying `flags`, one bit each. FieldWriter
/// sets each flag's bit when its bool is true; FieldReader sets each bool
/// from its bit and refuses a byte with any other bit set, naming the
/// byte: such a record is CRC-clean yet would re-encode to other bytes.
template <typename... B>
struct FlagByte {
  explicit FlagByte(Flag<B>... f) : flags(f...) {}
  std::tuple<Flag<B>...> flags;
};

/// \brief The writing `io` of a schema (see the file comment): writes each
/// field after `out`'s current bytes through a cursor. The writer grows
/// `out` ahead of the cursor in bounded steps (kMinRoom doubling up to
/// kMaxRoom: a record-sized first step, so a writer per journal record
/// zero-fills no more than it writes), and its destructor cuts `out` back
/// to the bytes written. So while a writer lives, `out` may hold room past
/// its fields: read `out` only once the writer is gone.
class FieldWriter {
 public:
  explicit FieldWriter(std::string* out)
      : out_(out), data_(out->data()), pos_(out->size()), end_(pos_) {}
  ~FieldWriter() { out_->resize(pos_); }
  FieldWriter(const FieldWriter&) = delete;
  FieldWriter& operator=(const FieldWriter&) = delete;

  template <typename... T>
  Status operator()(const T&... fields) {
    (Put(fields), ...);
    return Status::OK();
  }

  /// The writer writes what it is given; only FieldReader refuses.
  template <typename Why>
  Status Check(bool /*ok*/, const Why& /*why*/) const {
    return Status::OK();
  }

  /// Writes `bytes` as they are, without a length (a caller that states
  /// the length itself).
  void Bytes(std::string_view bytes) {
    std::memcpy(Room(bytes.size()), bytes.data(), bytes.size());
  }

  /// The length `out` will have: its bytes before the writer, then the
  /// fields written so far.
  size_t size() const { return pos_; }

 private:
  static constexpr size_t kMinRoom = 128;
  static constexpr size_t kMaxRoom = size_t{1} << 16;

  template <typename T>
  void Put(const T& v) {
    if constexpr (sizeof(T) == 1) {  // bool, u8 or a one-byte enum
      *Room(1) = static_cast<char>(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      static_assert(sizeof(T) == 8);
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      Word<8>(bits);
    } else if constexpr (sizeof(T) == 4) {
      Word<4>(static_cast<uint32_t>(v));
    } else if constexpr (std::is_same_v<T, unsigned __int128>) {
      Word<8>(static_cast<uint64_t>(v));  // low word, then high word
      Word<8>(static_cast<uint64_t>(v >> 64));
    } else {
      static_assert(std::is_integral_v<T> && sizeof(T) == 8);
      Word<8>(static_cast<uint64_t>(v));
    }
  }
  void Put(std::string_view s) {
    Word<4>(s.size());
    Bytes(s);
  }
  void Put(const std::string& s) { Put(std::string_view(s)); }
  void Put(const Status& s) {
    Put(static_cast<uint32_t>(s.code()));
    Put(s.message());
  }
  void Put(const std::optional<std::string>& s) {
    Put(s.has_value());
    if (s) Put(*s);
  }
  template <typename T, size_t N>
  void Put(const std::array<T, N>& values) {
    for (const T& v : values) Put(v);
  }
  template <typename... B>
  void Put(const FlagByte<B...>& f) {
    uint8_t byte = 0;
    std::apply(
        [&byte](const auto&... flag) {
          ((byte = static_cast<uint8_t>(byte | (flag.value ? flag.mask : 0))),
           ...);
        },
        f.flags);
    Put(byte);
  }

  // The low `N` (4 or 8) bytes of `v`, little-endian.
  template <size_t N>
  void Word(uint64_t v) {
    char* p = Room(N);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &v, N);
    } else {
      for (size_t i = 0; i < N; ++i) {
        p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
      }
    }
  }

  // Claims the next `n` bytes at the cursor, growing `out` when the room
  // left is short.
  char* Room(size_t n) {
    if (end_ - pos_ < n) Grow(n);
    char* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  void Grow(size_t n);

  std::string* out_;
  char* data_;       // out_->data(), refreshed on each Grow
  size_t pos_;       // the cursor
  size_t end_;       // out_->size(): the cursor's room ends here
  size_t step_ = 0;  // the last growth, kMinRoom..kMaxRoom
};

/// \brief The reading `io` of a schema (see the file comment): parses
/// each field from one payload, bounds-checked. A read past the end fails
/// "<what>: short read (<field> at byte N)".
class FieldReader {
 public:
  FieldReader(std::string_view payload, const char* what)
      : data_(payload), what_(what) {}

  template <typename... T>
  Status operator()(T&&... fields) {
    Status status = Status::OK();
    static_cast<void>((... && (status = Get(fields)).ok()));
    return status;
  }

  /// Refuses the record with InvalidArgument(`why`) unless `ok`; `why` is
  /// the whole message, a string or a callable building it (so a check
  /// that passes builds nothing).
  template <typename Why>
  Status Check(bool ok, const Why& why) const {
    if (ok) return Status::OK();
    if constexpr (std::is_invocable_v<const Why&>) {
      return Status::InvalidArgument(why());
    } else {
      return Status::InvalidArgument(std::string(why));
    }
  }

  /// InvalidArgument "<what>: <why>", or "<table> row K: <why>" inside a
  /// table row (Rows).
  Status Refuse(const std::string& why) const {
    const std::string where =
        table_ == nullptr
            ? std::string(what_)
            : std::string(table_) + " row " + std::to_string(row_);
    return Status::InvalidArgument(where + ": " + why);
  }

  /// Reads a table record's rows (see the file comment) until the payload
  /// ends, calling `row()` for each. Rows are numbered from `first`, the
  /// rows the table's earlier records held, so a refusal inside a row
  /// names it: "<table> row K: <why>". A record with no rows is refused.
  template <typename Row>
  Status Rows(const char* table, uint64_t first, const Row& row) {
    table_ = table;
    row_ = first;
    if (AtEnd()) return Refuse("empty table record");
    for (; !AtEnd(); ++row_) TBF_RETURN_NOT_OK(row());
    return Status::OK();
  }

  /// The unread rest of the payload, consumed (bulk tables).
  std::string_view Rest() {
    const std::string_view rest = data_.substr(pos_);
    pos_ = data_.size();
    return rest;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Status Get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      TBF_ASSIGN_OR_RETURN(const uint64_t b, Word(1, "u8"));
      if (b > 1) {
        return Refuse("flag byte " + std::to_string(b) + " is not 0/1");
      }
      v = b == 1;
    } else if constexpr (sizeof(T) == 1) {
      TBF_ASSIGN_OR_RETURN(const uint64_t b, Word(1, "u8"));
      v = static_cast<T>(b);
    } else if constexpr (std::is_floating_point_v<T>) {
      static_assert(sizeof(T) == 8);
      TBF_ASSIGN_OR_RETURN(const uint64_t bits, Word(8, "u64"));
      std::memcpy(&v, &bits, sizeof(v));
    } else if constexpr (sizeof(T) == 4) {
      TBF_ASSIGN_OR_RETURN(const uint64_t u, Word(4, "u32"));
      v = static_cast<T>(static_cast<uint32_t>(u));
    } else if constexpr (std::is_same_v<T, unsigned __int128>) {
      TBF_ASSIGN_OR_RETURN(const uint64_t lo, Word(8, "u64"));
      TBF_ASSIGN_OR_RETURN(const uint64_t hi, Word(8, "u64"));
      v = (static_cast<unsigned __int128>(hi) << 64) | lo;
    } else {
      TBF_ASSIGN_OR_RETURN(const uint64_t u, Word(8, "u64"));
      v = static_cast<T>(u);
    }
    return Status::OK();
  }
  Status Get(std::string& s) {
    TBF_ASSIGN_OR_RETURN(const uint64_t len, Word(4, "u32"));
    if (len > data_.size() - pos_) return Short("string body");
    s.assign(data_.substr(pos_, len));
    pos_ += len;
    return Status::OK();
  }
  Status Get(Status& s) {
    uint32_t code = 0;
    std::string message;
    TBF_RETURN_NOT_OK(operator()(code, message));
    if (code > static_cast<uint32_t>(StatusCode::kAborted)) {
      return Refuse("status code " + std::to_string(code) + " out of range");
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
  template <typename T, size_t N>
  Status Get(std::array<T, N>& values) {
    for (T& v : values) TBF_RETURN_NOT_OK(Get(v));
    return Status::OK();
  }
  template <typename... B>
  Status Get(FlagByte<B...>& f) {
    TBF_ASSIGN_OR_RETURN(const uint64_t byte, Word(1, "u8"));
    const uint64_t defined = std::apply(
        [](const auto&... flag) { return (uint64_t{flag.mask} | ...); },
        f.flags);
    if ((byte & ~defined) != 0) {
      char hex[64];
      std::snprintf(hex, sizeof(hex),
                    "flag byte 0x%02x sets undefined bits 0x%02x",
                    static_cast<unsigned>(byte),
                    static_cast<unsigned>(byte & ~defined));
      return Refuse(hex);
    }
    std::apply(
        [byte](auto&... flag) {
          ((flag.value = (byte & flag.mask) != 0), ...);
        },
        f.flags);
    return Status::OK();
  }

  // The next `bytes` (1, 4 or 8) little-endian bytes as a u64.
  Result<uint64_t> Word(size_t bytes, const char* field) {
    if (bytes > data_.size() - pos_) return Short(field);
    uint64_t v = 0;
    for (size_t i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += bytes;
    return v;
  }
  Status Short(const char* field) const {
    return Refuse(std::string("short read (") + field + " at byte " +
                  std::to_string(pos_) + ")");
  }

  std::string_view data_;
  const char* what_;
  size_t pos_ = 0;
  const char* table_ = nullptr;  // set by Rows
  uint64_t row_ = 0;
};

/// \brief In-place framing: BeginFrame reserves the 8-byte frame header
/// at the end of `out` and returns where the frame starts; the caller
/// appends the payload; EndFrame writes <len><crc> over the reserved
/// bytes. The journal's hot path and the checkpoint and snapshot
/// encoders frame this way, so each record is written exactly once.
size_t BeginFrame(std::string* out);
void EndFrame(std::string* out, size_t frame_start);

/// \brief Appends the frame `<len><crc><payload>` to `out`.
void AppendFrame(std::string* out, std::string_view payload);

/// \brief Frames one record in place at the end of `out`: the kind byte,
/// then whatever `fields(io)` writes.
template <typename Fields>
void AppendRecord(std::string* out, uint8_t kind, const Fields& fields) {
  const size_t frame = BeginFrame(out);
  {
    FieldWriter io(out);
    io(kind);
    fields(io);
  }
  EndFrame(out, frame);
}

/// \brief Outcome of walking a frame stream (see WalkFrames).
struct FrameWalk {
  uint64_t frames = 0;       ///< frames the visitor accepted
  uint64_t valid_bytes = 0;  ///< byte length of the accepted prefix
  bool bad = false;          ///< stopped at a bad or refused frame
  std::string bad_detail;    ///< "record N (offset B): reason"
};

/// \brief Walks the `<len><crc><payload>` frames of `bytes` from the
/// start, handing each CRC-valid payload to `visit`. Stops at the first
/// short header, over-cap length, frame running past the end (torn
/// write), CRC mismatch, or payload `visit` refuses (its message becomes
/// the reason). Never reads outside `bytes`.
FrameWalk WalkFrames(
    std::string_view bytes,
    const std::function<Status(std::string_view payload)>& visit);

/// \brief One artifact's place in the shared file grammar (see the file
/// comment).
struct ArtifactFormat {
  const char* name;       ///< "checkpoint": opens every file-level message
  std::string_view magic;
  uint32_t version;
  /// Record names by kind: kinds.front() names the header (kind 0),
  /// kinds.back() the end record when the format has one.
  std::span<const char* const> kinds;
  /// False for an append-only log, whose last kind is an ordinary record.
  bool has_end = true;
};

/// \brief Writes one artifact: the header record on construction, then
/// each Add, then the end record on Finish (not for a format without
/// one).
class ArtifactWriter {
 public:
  /// Writes the header: magic, version, then `header_fields(io)`.
  template <typename Fields>
  ArtifactWriter(const ArtifactFormat& format, std::string* out,
                 const Fields& header_fields)
      : out_(out), end_kind_(static_cast<uint8_t>(format.kinds.size() - 1)) {
    Add(0, [&](FieldWriter& io) {
      io(format.magic, format.version);
      header_fields(io);
    });
  }
  ArtifactWriter(const ArtifactFormat& format, std::string* out)
      : ArtifactWriter(format, out, [](FieldWriter&) {}) {}

  /// Frames one record in place (AppendRecord).
  template <typename Fields>
  void Add(uint8_t kind, const Fields& fields) {
    AppendRecord(out_, kind, fields);
    ++records_;
  }

  /// Writes rows [0, n) as a table (see the file comment): consecutive
  /// `kind` records of whole rows, `row(io, i)` writing row i. A record is
  /// closed before the row that would take its rows past
  /// kTableRecordBytes, unless that row is its first. No rows, no record.
  template <typename Row>
  void AddTable(uint8_t kind, size_t n, const Row& row) {
    size_t i = 0;
    while (i < n) {
      const size_t frame = BeginFrame(out_);
      size_t cut = 0;  // where the record's last whole row ends
      {
        FieldWriter io(out_);
        io(kind);
        const size_t start = io.size();
        cut = start;
        for (; i < n; ++i) {
          row(io, i);
          if (io.size() - start > kTableRecordBytes && cut > start) break;
          cut = io.size();
        }
      }
      out_->resize(cut);  // row i, if it did not fit, opens the next record
      EndFrame(out_, frame);
      ++records_;
    }
  }

  /// Writes the end record, counting the records before it.
  void Finish() {
    const uint64_t records = records_;
    Add(end_kind_, [records](FieldWriter& io) { io(records); });
  }

 private:
  std::string* out_;
  uint8_t end_kind_;
  uint64_t records_ = 0;
};

/// \brief Reads one artifact against the shared file grammar.
class ArtifactReader {
 public:
  /// Reads a record's own fields: the header's after its magic and
  /// version, nothing for the end record.
  using Visit = std::function<Status(uint8_t kind, FieldReader& io)>;

  explicit ArtifactReader(const ArtifactFormat& format) : format_(format) {}

  /// Walks the frames of `bytes`, checking each record's place in the
  /// grammar, the header's magic and version and the end record's count,
  /// and handing every record to `visit`; a record with bytes left over
  /// after `visit` is refused. Fails "<name> record N (offset B): <reason>"
  /// at the first bad record and "<name>: empty file" on no records. An
  /// artifact checks on its own that the end record came.
  Status Read(std::string_view bytes, const Visit& visit);

  /// Records accepted so far.
  uint64_t records() const { return records_; }

 private:
  Status Decode(std::string_view payload, const Visit& visit);

  const ArtifactFormat& format_;
  uint64_t records_ = 0;
  bool ended_ = false;
};

}  // namespace tbf
