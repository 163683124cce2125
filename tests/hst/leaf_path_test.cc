#include "hst/leaf_path.h"

#include <gtest/gtest.h>

#include "common/math.h"

namespace tbf {
namespace {

LeafPath P(std::initializer_list<int> digits) {
  LeafPath p;
  for (int d : digits) p.push_back(static_cast<char16_t>(d));
  return p;
}

TEST(LcaLevelTest, SameLeafIsZero) {
  EXPECT_EQ(LcaLevel(P({0, 1, 2}), P({0, 1, 2})), 0);
}

TEST(LcaLevelTest, DifferAtLastDigit) {
  EXPECT_EQ(LcaLevel(P({0, 1, 2}), P({0, 1, 3})), 1);
}

TEST(LcaLevelTest, DifferAtFirstDigit) {
  EXPECT_EQ(LcaLevel(P({0, 1, 2}), P({1, 1, 2})), 3);
}

TEST(LcaLevelTest, MiddleDigit) {
  EXPECT_EQ(LcaLevel(P({0, 1, 2, 3}), P({0, 2, 2, 3})), 3);
  EXPECT_EQ(LcaLevel(P({0, 1, 2, 3}), P({0, 1, 0, 3})), 2);
}

TEST(LcaLevelTest, Symmetric) {
  LeafPath a = P({0, 2, 1});
  LeafPath b = P({0, 0, 1});
  EXPECT_EQ(LcaLevel(a, b), LcaLevel(b, a));
}

TEST(TreeDistanceForLevelTest, PaperFormula) {
  // d = 2^{L+2} - 4: siblings (L=1) are 4 apart, L=2 -> 12, L=3 -> 28.
  EXPECT_EQ(TreeDistanceForLevel(0), 0.0);
  EXPECT_EQ(TreeDistanceForLevel(1), 4.0);
  EXPECT_EQ(TreeDistanceForLevel(2), 12.0);
  EXPECT_EQ(TreeDistanceForLevel(3), 28.0);
  EXPECT_EQ(TreeDistanceForLevel(4), 60.0);
}

TEST(TreeDistanceForLevelTest, EqualsSumOfEdgeLengths) {
  // Distance to LCA at level L = 2 * sum_{i=1}^{L} 2^i.
  for (int level = 1; level <= 20; ++level) {
    double sum = 0;
    for (int i = 1; i <= level; ++i) sum += 2.0 * PowerOfTwo(i);
    EXPECT_DOUBLE_EQ(TreeDistanceForLevel(level), sum) << "level " << level;
  }
}

TEST(TreeDistanceForLevelTest, Monotone) {
  for (int level = 0; level < 30; ++level) {
    EXPECT_LT(TreeDistanceForLevel(level), TreeDistanceForLevel(level + 1));
  }
}

TEST(AncestorPrefixTest, Levels) {
  LeafPath p = P({3, 1, 4});
  EXPECT_EQ(AncestorPrefix(p, 0), p);
  EXPECT_EQ(AncestorPrefix(p, 1), P({3, 1}));
  EXPECT_EQ(AncestorPrefix(p, 2), P({3}));
  EXPECT_EQ(AncestorPrefix(p, 3), LeafPath());
}

TEST(LeafPathStringTest, RoundTrip) {
  LeafPath p = P({0, 12, 3});
  EXPECT_EQ(LeafPathToString(p), "0.12.3");
}

TEST(LeafPathStringTest, Empty) {
  EXPECT_EQ(LeafPathToString(LeafPath()), "");
}

TEST(LeafPathStringTest, SingleDigit) {
  EXPECT_EQ(LeafPathToString(P({7})), "7");
}

TEST(LcaLevelDeathTest, MismatchedDepthsAbort) {
  EXPECT_DEATH(LcaLevel(P({0, 1}), P({0, 1, 2})), "different trees");
}

}  // namespace
}  // namespace tbf
