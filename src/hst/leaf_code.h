// Packed fixed-width leaf addressing.
//
// LeafPath (std::u16string) is flexible but heap-allocated and hashed per
// lookup — far too heavy for the hot paths (LcaLevel in the scan matcher,
// trie descent in the availability index, millions of calls per episode).
// A LeafCode packs the whole digit path into one 128-bit word: each digit
// takes ⌈log2(c)⌉ bits, stored root-first from bit 127 down.
//
// Properties the hot paths rely on:
//   * unsigned comparison of codes == lexicographic comparison of paths
//     (digits sit high-to-low), so canonical tie-breaking works on codes;
//   * XOR + a two-word count of leading zeros finds the first differing
//     digit in O(1), hence the LCA level, for ANY arity — equal digits
//     have equal bit patterns, so the leading set bit of a^b always falls
//     inside the first differing digit's field. A digit-loop fallback is
//     kept only for verification.
//
// A (depth, arity) shape fits iff depth * ⌈log2(c)⌉ <= 128. Measured on
// TbfFramework::Build over uniform grids (seeds 1-3): 100² points need 50
// bits, 316² (~100k) need 55, and 1000² (1M) need 65. CompleteHst refuses
// every shape that does not fit, so every published tree has a codec and
// the serve, journal, checkpoint and snapshot paths speak codes only.
//
// The build is strict C++20, where std::hash, std::countl_zero and
// std::is_integral do not cover unsigned __int128; LeafCodeHash and
// CountlZero below fill the two gaps the code needs.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/status.h"
#include "hst/leaf_path.h"

namespace tbf {

/// \brief Packed digit path of a leaf; meaningful only together with the
/// LeafCodec that produced it.
using LeafCode = unsigned __int128;

/// Width of a LeafCode in bits.
inline constexpr int kLeafCodeBits = 128;

/// \brief Leading zero bits of `x` (128 for zero).
inline int CountlZero(LeafCode x) {
  const auto hi = static_cast<uint64_t>(x >> 64);
  if (hi != 0) return std::countl_zero(hi);
  return 64 + std::countl_zero(static_cast<uint64_t>(x));
}

/// \brief Hash functor for LeafCode-keyed containers. Codes of shapes
/// within 64 bits have a zero low word and hash to their high word.
struct LeafCodeHash {
  size_t operator()(LeafCode code) const noexcept {
    const auto hi = static_cast<uint64_t>(code >> 64);
    const auto lo = static_cast<uint64_t>(code);
    return std::hash<uint64_t>{}(hi ^ (lo * 0x9E3779B97F4A7C15ull));
  }
};

/// \brief Pack/unpack schema for one (depth, arity) tree shape.
class LeafCodec {
 public:
  /// CHECK-fails unless Fits(depth, arity).
  LeafCodec(int depth, int arity);

  /// \brief Bits per digit: ⌈log2(arity)⌉, at least 1.
  static int BitsPerDigit(int arity);

  /// \brief True when depth * BitsPerDigit(arity) <= 128.
  static bool Fits(int depth, int arity);

  int depth() const { return depth_; }
  int arity() const { return arity_; }
  int bits_per_digit() const { return bits_; }

  /// \brief Bits below the last digit, always zero in a valid code.
  int low_bits() const { return kLeafCodeBits - bits_ * depth_; }

  /// \brief Packs a digit path (length must equal depth, digits < arity).
  LeafCode Pack(const LeafPath& path) const;

  /// \brief Reconstructs the digit path.
  LeafPath Unpack(LeafCode code) const;

  /// \brief The one validity rule for a code from outside (a client
  /// report, a snapshot row, FromParts): no set bit below the last digit,
  /// or two distinct codes would name the same leaf, and, for a
  /// non-power-of-two arity, every digit field below the arity. O(1) for
  /// power-of-two arity, O(depth) otherwise.
  Status Validate(LeafCode code) const;

  /// \brief Digit at root-first `position` in [0, depth).
  int Digit(LeafCode code, int position) const {
    return static_cast<int>(static_cast<uint64_t>(code >> Shift(position)) &
                            mask_);
  }

  /// \brief Copy of `code` with the digit at `position` replaced.
  LeafCode WithDigit(LeafCode code, int position, int digit) const {
    const int shift = Shift(position);
    return (code & ~(LeafCode{mask_} << shift)) |
           (LeafCode{static_cast<uint64_t>(digit)} << shift);
  }

  /// \brief The first `digits` digits as a base-2^bits integer (the
  /// leaf's ancestor prefix at level depth - digits). `digits` in
  /// [0, depth] with digits * bits_per_digit() <= 64; 0 digits yield 0.
  /// Shard routing keys on this value.
  uint64_t PrefixValue(LeafCode code, int digits) const {
    if (digits <= 0) return 0;
    return static_cast<uint64_t>(code >> Shift(digits - 1));
  }

  /// \brief LCA level of two leaves: 0 when equal, else depth - (index of
  /// the first differing digit). O(1) via XOR + CountlZero.
  int LcaLevel(LeafCode a, LeafCode b) const {
    const LeafCode diff = a ^ b;
    if (diff == 0) return 0;
    return depth_ - CountlZero(diff) / bits_;
  }

 private:
  int Shift(int position) const {
    return kLeafCodeBits - bits_ * (position + 1);
  }

  int depth_;
  int arity_;
  int bits_;
  uint64_t mask_;
};

}  // namespace tbf
