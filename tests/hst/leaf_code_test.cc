#include "hst/leaf_code.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace tbf {
namespace {

// Reference LcaLevel walking the digits one by one; certifies the
// XOR + CountlZero path.
int LcaLevelDigitLoop(const LeafCodec& codec, LeafCode a, LeafCode b) {
  for (int j = 0; j < codec.depth(); ++j) {
    if (codec.Digit(a, j) != codec.Digit(b, j)) return codec.depth() - j;
  }
  return 0;
}

TEST(LeafCodecTest, BitsPerDigit) {
  EXPECT_EQ(LeafCodec::BitsPerDigit(2), 1);
  EXPECT_EQ(LeafCodec::BitsPerDigit(3), 2);
  EXPECT_EQ(LeafCodec::BitsPerDigit(4), 2);
  EXPECT_EQ(LeafCodec::BitsPerDigit(5), 3);
  EXPECT_EQ(LeafCodec::BitsPerDigit(8), 3);
  EXPECT_EQ(LeafCodec::BitsPerDigit(9), 4);
  EXPECT_EQ(LeafCodec::BitsPerDigit(22), 5);
}

TEST(LeafCodecTest, FitsBoundaries) {
  EXPECT_TRUE(LeafCodec::Fits(128, 2));   // 128 * 1
  EXPECT_FALSE(LeafCodec::Fits(129, 2));
  EXPECT_TRUE(LeafCodec::Fits(64, 4));    // 64 * 2
  EXPECT_FALSE(LeafCodec::Fits(65, 4));
  EXPECT_TRUE(LeafCodec::Fits(13, 22));   // 13 * 5 = 65: past one word
  EXPECT_TRUE(LeafCodec::Fits(25, 22));   // 25 * 5 = 125
  EXPECT_FALSE(LeafCodec::Fits(26, 22));  // 26 * 5 = 130
  EXPECT_TRUE(LeafCodec::Fits(8, 65535));  // 8 * 16
  EXPECT_FALSE(LeafCodec::Fits(9, 65535));
  EXPECT_FALSE(LeafCodec::Fits(0, 2));
  EXPECT_FALSE(LeafCodec::Fits(3, 1));
}

TEST(LeafCodecTest, PackUnpackRoundTrip) {
  Rng rng(17);
  for (int arity : {2, 3, 4, 7, 11, 22, 32}) {
    const int depth = kLeafCodeBits / LeafCodec::BitsPerDigit(arity);
    LeafCodec codec(depth, arity);
    for (int trial = 0; trial < 200; ++trial) {
      LeafPath path = RandomLeafPath(depth, arity, &rng);
      LeafCode code = codec.Pack(path);
      EXPECT_EQ(codec.Unpack(code), path);
      for (int j = 0; j < depth; ++j) {
        EXPECT_EQ(codec.Digit(code, j), static_cast<int>(path[j]));
      }
    }
  }
}

TEST(LeafCodecTest, WithDigit) {
  LeafCodec codec(4, 5);
  LeafCode code = codec.Pack(LeafPath({1, 4, 0, 2}));
  LeafCode patched = codec.WithDigit(code, 1, 3);
  EXPECT_EQ(codec.Unpack(patched), LeafPath({1, 3, 0, 2}));
  // Other digits untouched, original unchanged.
  EXPECT_EQ(codec.Unpack(code), LeafPath({1, 4, 0, 2}));
  EXPECT_EQ(codec.WithDigit(patched, 1, 4), code);
}

TEST(LeafCodecTest, LcaLevelMatchesLeafPathReference) {
  Rng rng(23);
  for (int arity : {2, 3, 8, 13, 22}) {  // power-of-two and not
    for (int depth : {1, 3, 6, 9, 13, 25}) {  // 13 x 5 bits > 64
      LeafCodec codec(depth, arity);
      for (int trial = 0; trial < 300; ++trial) {
        LeafPath a = RandomLeafPath(depth, arity, &rng);
        // Bias toward shared prefixes so all levels get exercised.
        LeafPath b = a;
        int from = static_cast<int>(rng.UniformInt(0, depth));
        for (int j = from; j < depth; ++j) {
          b[static_cast<size_t>(j)] =
              static_cast<char16_t>(rng.UniformInt(0, arity - 1));
        }
        const int expected = LcaLevel(a, b);
        LeafCode ca = codec.Pack(a);
        LeafCode cb = codec.Pack(b);
        EXPECT_EQ(codec.LcaLevel(ca, cb), expected);
        EXPECT_EQ(LcaLevelDigitLoop(codec, ca, cb), expected);
      }
    }
  }
}

TEST(LeafCodecTest, CodeOrderIsLexicographicPathOrder) {
  // Canonical tie-breaking compares leaf paths lexicographically; the flat
  // engines compare packed codes instead, which is only sound because the
  // two orders coincide.
  Rng rng(29);
  for (int arity : {2, 5, 22}) {
    const int depth = arity == 22 ? 20 : 7;  // 20 x 5 bits spans both words
    LeafCodec codec(depth, arity);
    std::vector<LeafPath> paths;
    for (int i = 0; i < 100; ++i) paths.push_back(RandomLeafPath(depth, arity, &rng));
    for (const LeafPath& a : paths) {
      for (const LeafPath& b : paths) {
        EXPECT_EQ(a < b, codec.Pack(a) < codec.Pack(b));
      }
    }
  }
}

TEST(LeafCodecTest, CountlZeroSpansBothWords) {
  EXPECT_EQ(CountlZero(LeafCode{0}), 128);
  EXPECT_EQ(CountlZero(LeafCode{1}), 127);
  EXPECT_EQ(CountlZero(LeafCode{1} << 63), 64);
  EXPECT_EQ(CountlZero(LeafCode{1} << 64), 63);
  EXPECT_EQ(CountlZero(LeafCode{1} << 127), 0);
  EXPECT_EQ(CountlZero((LeafCode{1} << 100) | 1), 27);
}

TEST(LeafCodecTest, HashSeparatesCodesDifferingInEitherWord) {
  const LeafCodeHash hash;
  const LeafCode a = LeafCode{0x1234} << 64;
  EXPECT_NE(hash(a), hash(a | 1));
  EXPECT_NE(hash(a), hash(LeafCode{0x1234}));
  EXPECT_EQ(hash(a), hash(LeafCode{0x1234} << 64));
}

}  // namespace
}  // namespace tbf
