// The one binary frame format every on-disk artifact is written in:
// journal segments (serve/wal.h), replay checkpoints (serve/checkpoint.h)
// and tree snapshots (hst/snapshot.h) are all streams of
//
//   frame := <len:u32> <crc:u32> <payload: len bytes>
//
// with the CRC-32 below over the payload bytes. This module owns that
// format: the CRC, the in-place frame writer, the frame walker (with its
// payload cap and record-precise messages) and the little-endian field
// helpers the artifacts build their payloads from. Integers are
// little-endian (a 128-bit leaf code is its low u64 then its high u64),
// doubles their IEEE-754 bit patterns, strings <len:u32><bytes>.
// tools/tbf_frames.py mirrors it for the stdlib Python validators.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace tbf {

/// \brief CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) —
/// bit-compatible with zlib's crc32() and Python's binascii.crc32. Pass a
/// previous return value as `crc` to checksum incrementally.
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

/// A frame claiming a larger payload than this is garbage (torn or
/// corrupt), not a real record: the cap keeps a corrupted length field
/// from driving a huge allocation. Writers split anything bigger.
constexpr size_t kMaxFramePayload = size_t{1} << 22;

namespace wire {

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU16(std::string* out, uint16_t v) {
  const char buf[2] = {static_cast<char>(v & 0xFF),
                       static_cast<char>((v >> 8) & 0xFF)};
  out->append(buf, 2);
}

inline void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out->append(buf, 4);  // one append, not four push_backs (hot path)
}

inline void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out->append(buf, 8);
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// <len:u32><bytes>.
inline void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Low word, then high word: 16 little-endian bytes.
inline void PutU128(std::string* out, unsigned __int128 v) {
  PutU64(out, static_cast<uint64_t>(v));
  PutU64(out, static_cast<uint64_t>(v >> 64));
}

/// \brief Bounds-checked little-endian reader over one payload. A read
/// past the end fails with "<what>: short read (<field> at byte N)".
class ByteReader {
 public:
  ByteReader(std::string_view data, const char* what)
      : data_(data), what_(what) {}

  Result<uint8_t> U8() {
    if (pos_ + 1 > data_.size()) return Short("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> U32() {
    if (pos_ + 4 > data_.size()) return Short("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (pos_ + 8 > data_.size()) return Short("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  Result<int64_t> I64() {
    TBF_ASSIGN_OR_RETURN(uint64_t v, U64());
    return static_cast<int64_t>(v);
  }
  Result<double> F64() {
    TBF_ASSIGN_OR_RETURN(uint64_t bits, U64());
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  Result<std::string> Str() {
    TBF_ASSIGN_OR_RETURN(uint32_t len, U32());
    if (len > data_.size() - pos_) return Short("string body");
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }
  Result<unsigned __int128> U128() {
    TBF_ASSIGN_OR_RETURN(uint64_t lo, U64());
    TBF_ASSIGN_OR_RETURN(uint64_t hi, U64());
    return (static_cast<unsigned __int128>(hi) << 64) | lo;
  }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t pos() const { return pos_; }

 private:
  Status Short(const char* field) const {
    return Status::InvalidArgument(std::string(what_) + ": short read (" +
                                   field + " at byte " + std::to_string(pos_) +
                                   ")");
  }

  std::string_view data_;
  const char* what_;
  size_t pos_ = 0;
};

}  // namespace wire

/// \brief In-place framing: BeginFrame reserves the 8-byte frame header
/// at the end of `out` and returns where the frame starts; the caller
/// appends the payload; EndFrame writes <len><crc> over the reserved
/// bytes. The journal's hot path and the checkpoint and snapshot
/// encoders frame this way, so each record is written exactly once.
size_t BeginFrame(std::string* out);
void EndFrame(std::string* out, size_t frame_start);

/// \brief Appends the frame `<len><crc><payload>` to `out`.
void AppendFrame(std::string* out, std::string_view payload);

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

}  // namespace tbf
