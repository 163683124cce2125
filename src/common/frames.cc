#include "common/frames.h"

#include <algorithm>
#include <array>
#include <cstdio>

// The carry-less-multiply fold is built for x86-64 with GCC or Clang (for
// their target attribute and __builtin_cpu_supports); elsewhere Crc32 is
// the table alone.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TBF_CRC32_FOLD 1
#include <immintrin.h>
#endif

namespace tbf {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // <len:u32><crc:u32>

// Slice-by-8: tables[j] advances a byte through j+1 rounds of the
// polynomial, so the loop folds 8 input bytes per step with no inter-byte
// dependency chain. Same polynomial, same values as the classic one-table
// loop. `crc` is the running register (the complemented CRC).
uint32_t Crc32Table(const unsigned char* p, size_t n, uint32_t crc) {
  static const std::array<std::array<uint32_t, 256>, 8> kTables = [] {
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      tables[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = tables[0][i];
      for (int j = 1; j < 8; ++j) {
        c = tables[0][c & 0xFFu] ^ (c >> 8);
        tables[j][i] = c;
      }
    }
    return tables;
  }();
  const auto& t = kTables;
  while (n >= 8) {
    const uint32_t low = crc ^ (static_cast<uint32_t>(p[0]) |
                                (static_cast<uint32_t>(p[1]) << 8) |
                                (static_cast<uint32_t>(p[2]) << 16) |
                                (static_cast<uint32_t>(p[3]) << 24));
    crc = t[7][low & 0xFFu] ^ t[6][(low >> 8) & 0xFFu] ^
          t[5][(low >> 16) & 0xFFu] ^ t[4][low >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef TBF_CRC32_FOLD
bool HaveClmul() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return have;
}

// a times k, folded onto b: a's low half times k's low half plus a's high
// half times k's high half, then b.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i a, __m128i k,
                                                      __m128i b) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       b);
}

__m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds `n` bytes (n >= 64, a multiple of 16) into the running register
// `crc` with carry-less multiplies: four 128-bit lanes fold 64-byte
// blocks, then one lane folds the rest 16 bytes at a time, and a Barrett
// reduction brings the 128-bit remainder down to 32 bits. The constants
// are powers of x modulo the bit-reflected polynomial (Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel
// 2009): k1/k2 fold across 512 bits, k3/k4 across 128, k5 the last 64,
// then the polynomial and its Barrett quotient.
__attribute__((target("pclmul"))) uint32_t Crc32Fold(const unsigned char* p,
                                                     size_t n, uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load(p));
    x1 = Fold(x1, k1k2, Load(p + 16));
    x2 = Fold(x2, k1k2, Load(p + 32));
    x3 = Fold(x3, k1k2, Load(p + 48));
  }
  __m128i x = Fold(Fold(Fold(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x = Fold(x, k3k4, Load(p));

  // 128 -> 64 bits (appending the 32 zero bits the CRC's definition
  // implies), then 64 -> 32.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00),
                    _mm_srli_si128(x, 4));
  // Barrett reduction.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly, 0x00);
  x = _mm_xor_si128(x, q);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}
#endif

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t crc) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  crc = ~crc;
#ifdef TBF_CRC32_FOLD
  if (n >= 64 && HaveClmul()) {
    const size_t folded = n & ~size_t{15};
    crc = Crc32Fold(p, folded, crc);
    p += folded;
    n -= folded;
  }
#endif
  return ~Crc32Table(p, n, crc);
}

void FieldWriter::Grow(size_t n) {
  step_ = step_ == 0 ? kMinRoom : std::min(2 * step_, kMaxRoom);
  out_->resize(pos_ + std::max(n, step_));
  data_ = out_->data();
  end_ = out_->size();
}

size_t BeginFrame(std::string* out) {
  const size_t frame_start = out->size();
  out->append(kFrameHeaderBytes, '\0');
  return frame_start;
}

void EndFrame(std::string* out, size_t frame_start) {
  const size_t payload_start = frame_start + kFrameHeaderBytes;
  const std::string_view payload(out->data() + payload_start,
                                 out->size() - payload_start);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload);
  char header[kFrameHeaderBytes];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((len >> (8 * i)) & 0xFFu);
    header[4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
  std::memcpy(out->data() + frame_start, header, kFrameHeaderBytes);
}

void AppendFrame(std::string* out, std::string_view payload) {
  const size_t frame_start = BeginFrame(out);
  out->append(payload.data(), payload.size());
  EndFrame(out, frame_start);
}

FrameWalk WalkFrames(
    std::string_view bytes,
    const std::function<Status(std::string_view payload)>& visit) {
  FrameWalk walk;
  size_t pos = 0;
  const auto bad = [&](const std::string& reason) {
    walk.bad = true;
    walk.bad_detail = "record " + std::to_string(walk.frames) + " (offset " +
                      std::to_string(pos) + "): " + reason;
  };
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeaderBytes) {
      bad("short frame header (" + std::to_string(bytes.size() - pos) +
          " trailing bytes)");
      break;
    }
    uint32_t len = 0;
    uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
      crc |= static_cast<uint32_t>(
                 static_cast<unsigned char>(bytes[pos + 4 + i]))
             << (8 * i);
    }
    if (len > kMaxFramePayload) {
      bad("frame length " + std::to_string(len) + " exceeds the " +
          std::to_string(kMaxFramePayload) + "-byte cap");
      break;
    }
    if (pos + kFrameHeaderBytes + len > bytes.size()) {
      bad("frame extends " +
          std::to_string(pos + kFrameHeaderBytes + len - bytes.size()) +
          " bytes past end of file (torn write)");
      break;
    }
    const std::string_view payload = bytes.substr(pos + kFrameHeaderBytes, len);
    const uint32_t actual = Crc32(payload);
    if (actual != crc) {
      char hex[48];
      std::snprintf(hex, sizeof(hex), "declared %08x, computed %08x", crc,
                    actual);
      bad(std::string("payload CRC mismatch (") + hex + ")");
      break;
    }
    const Status visited = visit(payload);
    if (!visited.ok()) {
      // CRC-valid but schema-bad is corruption (or a format skew), never
      // a torn write — surface the decoder's message verbatim.
      bad(visited.message());
      break;
    }
    pos += kFrameHeaderBytes + len;
    walk.valid_bytes = pos;
    ++walk.frames;
  }
  return walk;
}

Status ArtifactReader::Read(std::string_view bytes, const Visit& visit) {
  const FrameWalk walk = WalkFrames(
      bytes, [&](std::string_view payload) { return Decode(payload, visit); });
  const std::string name(format_.name);
  if (walk.bad) return Status::InvalidArgument(name + " " + walk.bad_detail);
  if (records_ == 0) return Status::InvalidArgument(name + ": empty file");
  return Status::OK();
}

Status ArtifactReader::Decode(std::string_view payload, const Visit& visit) {
  if (payload.empty()) return Status::InvalidArgument("empty record");
  const auto kind = static_cast<uint8_t>(payload[0]);
  if (kind >= format_.kinds.size()) {
    return Status::InvalidArgument("unknown record kind " +
                                   std::to_string(kind));
  }
  const std::string name = std::string(format_.kinds[kind]) + " record";
  FieldReader io(payload, name.c_str());
  uint8_t kind_byte = 0;
  TBF_RETURN_NOT_OK(io(kind_byte));
  if (records_ == 0 && kind != 0) {
    return io.Refuse(std::string("the first record must be the ") +
                     format_.name + " header");
  }
  if (ended_) return io.Refuse("follows the end record");
  if (kind == 0) {
    std::string magic;
    uint32_t version = 0;
    TBF_RETURN_NOT_OK(io(magic, version));
    if (magic != format_.magic) return io.Refuse("bad magic '" + magic + "'");
    if (version != format_.version) {
      return io.Refuse("unsupported version " + std::to_string(version) +
                       " (this build reads v" +
                       std::to_string(format_.version) + ")");
    }
  } else if (format_.has_end && kind == format_.kinds.size() - 1) {
    uint64_t counted = 0;
    TBF_RETURN_NOT_OK(io(counted));
    if (counted != records_) {
      return io.Refuse("counts " + std::to_string(counted) +
                       " records before it, the file has " +
                       std::to_string(records_));
    }
    ended_ = true;
  }
  TBF_RETURN_NOT_OK(visit(kind, io));
  if (!io.AtEnd()) return io.Refuse("trailing bytes after a complete record");
  ++records_;
  bytes_ += kFrameHeaderBytes + payload.size();
  return Status::OK();
}

}  // namespace tbf
