#include "hst/leaf_code.h"

#include <string>

#include "common/logging.h"

namespace tbf {

int LeafCodec::BitsPerDigit(int arity) {
  TBF_CHECK(arity >= 2) << "arity must be >= 2";
  return std::bit_width(static_cast<unsigned>(arity - 1));
}

bool LeafCodec::Fits(int depth, int arity) {
  if (depth < 1 || arity < 2) return false;
  return int64_t{depth} * BitsPerDigit(arity) <= kLeafCodeBits;
}

LeafCodec::LeafCodec(int depth, int arity)
    : depth_(depth), arity_(arity), bits_(BitsPerDigit(arity)),
      mask_((uint64_t{1} << bits_) - 1) {
  TBF_CHECK(Fits(depth, arity))
      << "leaf codes need " << int64_t{depth} * bits_ << " bits for depth "
      << depth << ", arity " << arity;
}

LeafCode LeafCodec::Pack(const LeafPath& path) const {
  TBF_CHECK(static_cast<int>(path.size()) == depth_) << "leaf depth mismatch";
  LeafCode code = 0;
  for (int j = 0; j < depth_; ++j) {
    const int digit = static_cast<int>(path[static_cast<size_t>(j)]);
    TBF_DCHECK(digit >= 0 && digit < arity_) << "digit " << digit
                                             << " out of range";
    code |= LeafCode{static_cast<uint64_t>(digit)} << Shift(j);
  }
  return code;
}

LeafPath LeafCodec::Unpack(LeafCode code) const {
  LeafPath path(static_cast<size_t>(depth_), 0);
  for (int j = 0; j < depth_; ++j) {
    path[static_cast<size_t>(j)] = static_cast<char16_t>(Digit(code, j));
  }
  return path;
}

Status LeafCodec::Validate(LeafCode code) const {
  const int low = low_bits();
  if (low > 0 && (code & ((LeafCode{1} << low) - 1)) != 0) {
    return Status::InvalidArgument(
        "code has bits outside the shape (below its last digit)");
  }
  // For power-of-two arity every digit field value is a valid digit.
  if ((arity_ & (arity_ - 1)) != 0) {
    for (int j = 0; j < depth_; ++j) {
      const int digit = Digit(code, j);
      if (digit >= arity_) {
        return Status::InvalidArgument(
            "digit " + std::to_string(digit) + " at position " +
            std::to_string(j) + " exceeds the published arity " +
            std::to_string(arity_));
      }
    }
  }
  return Status::OK();
}

}  // namespace tbf
