// Packed fixed-width leaf addressing.
//
// LeafPath (std::u16string) is flexible but heap-allocated and hashed per
// lookup — far too heavy for the hot paths (LcaLevel in the scan matcher,
// trie descent in the availability index, millions of calls per episode).
// A LeafCode packs the whole digit path into one uint64_t: each digit takes
// ⌈log2(c)⌉ bits, stored root-first from the most significant bit down.
//
// Properties the hot paths rely on:
//   * unsigned comparison of codes == lexicographic comparison of paths
//     (digits sit high-to-low), so canonical tie-breaking works on codes;
//   * XOR + countl_zero finds the first differing digit in O(1), hence the
//     LCA level, for ANY arity — equal digits have equal bit patterns, so
//     the leading set bit of a^b always falls inside the first differing
//     digit's field. A digit-loop fallback is kept only for verification.
//
// A (depth, arity) shape fits iff depth * ⌈log2(c)⌉ <= 64. Measured on
// TbfFramework::Build over uniform grids (seeds 1-3): 100² points need 50
// bits, 316² (~100k) need 55, and 1000² (1M) need 65, so million-point
// trees get no codec. Callers must check LeafCodec::Fits before
// constructing a codec; the availability index transparently works
// without one (walking LeafPath digits directly), so oversized trees
// degrade to the LeafPath path instead of breaking.

#pragma once

#include <bit>
#include <cstdint>

#include "hst/leaf_path.h"

namespace tbf {

/// \brief Packed digit path of a leaf; meaningful only together with the
/// LeafCodec that produced it.
using LeafCode = uint64_t;

/// \brief Pack/unpack schema for one (depth, arity) tree shape.
class LeafCodec {
 public:
  /// CHECK-fails unless Fits(depth, arity).
  LeafCodec(int depth, int arity);

  /// \brief Bits per digit: ⌈log2(arity)⌉, at least 1.
  static int BitsPerDigit(int arity);

  /// \brief True when depth * BitsPerDigit(arity) <= 64.
  static bool Fits(int depth, int arity);

  int depth() const { return depth_; }
  int arity() const { return arity_; }
  int bits_per_digit() const { return bits_; }

  /// \brief Packs a digit path (length must equal depth, digits < arity).
  LeafCode Pack(const LeafPath& path) const;

  /// \brief Reconstructs the digit path.
  LeafPath Unpack(LeafCode code) const;

  /// \brief Digit at root-first `position` in [0, depth).
  int Digit(LeafCode code, int position) const {
    return static_cast<int>((code >> Shift(position)) & mask_);
  }

  /// \brief Copy of `code` with the digit at `position` replaced.
  LeafCode WithDigit(LeafCode code, int position, int digit) const {
    const int shift = Shift(position);
    return (code & ~(mask_ << shift)) |
           (static_cast<LeafCode>(static_cast<uint64_t>(digit)) << shift);
  }

  /// \brief The first `digits` digits as a base-arity integer (the leaf's
  /// ancestor prefix at level depth - digits). `digits` in [0, depth];
  /// 0 digits yield 0. Shard routing keys on this value.
  uint64_t PrefixValue(LeafCode code, int digits) const {
    if (digits <= 0) return 0;
    return code >> Shift(digits - 1);
  }

  /// \brief LCA level of two leaves: 0 when equal, else depth - (index of
  /// the first differing digit). O(1) via XOR + countl_zero.
  int LcaLevel(LeafCode a, LeafCode b) const {
    const uint64_t diff = a ^ b;
    if (diff == 0) return 0;
    return depth_ - std::countl_zero(diff) / bits_;
  }

  /// \brief Reference implementation of LcaLevel walking the digits one by
  /// one; used by tests to certify the bit-twiddling path.
  int LcaLevelDigitLoop(LeafCode a, LeafCode b) const;

 private:
  int Shift(int position) const { return 64 - bits_ * (position + 1); }

  int depth_;
  int arity_;
  int bits_;
  uint64_t mask_;
};

}  // namespace tbf
