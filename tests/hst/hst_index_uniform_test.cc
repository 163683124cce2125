// Tests of NearestUniform: same minimal level as Nearest, uniform over the
// equidistant set.

#include <gtest/gtest.h>

#include <map>

#include "common/stats.h"
#include "hst/path_index.h"

namespace tbf {
namespace {

LeafPath P(std::initializer_list<int> digits) {
  LeafPath p;
  for (int d : digits) p.push_back(static_cast<char16_t>(d));
  return p;
}

TEST(NearestUniformTest, EmptyIndex) {
  PathIndex index(3, 2);
  Rng rng(1);
  EXPECT_FALSE(index.NearestUniform(P({0, 0, 0}), &rng).has_value());
}

TEST(NearestUniformTest, SingleItemAnyLevel) {
  PathIndex index(3, 2);
  index.Insert(P({0, 1, 0}), 5);
  Rng rng(2);
  auto got = index.NearestUniform(P({1, 1, 1}), &rng);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, 5);
  EXPECT_EQ(got->second, 3);
}

TEST(NearestUniformTest, LevelMatchesCanonicalNearest) {
  const int depth = 5;
  const int arity = 3;
  Rng data_rng(3);
  PathIndex index(depth, arity);
  auto random_leaf = [&]() {
    LeafPath p;
    for (int i = 0; i < depth; ++i) {
      p.push_back(static_cast<char16_t>(data_rng.UniformInt(0, arity - 1)));
    }
    return p;
  };
  for (int i = 0; i < 40; ++i) index.Insert(random_leaf(), i);
  Rng rng(4);
  for (int q = 0; q < 60; ++q) {
    LeafPath query = random_leaf();
    auto canonical = index.Nearest(query);
    auto uniform = index.NearestUniform(query, &rng);
    ASSERT_EQ(canonical.has_value(), uniform.has_value());
    // The picked item may differ, but the distance (level) must agree.
    EXPECT_EQ(canonical->second, uniform->second) << "query " << q;
  }
}

TEST(NearestUniformTest, UniformWithinLeaf) {
  PathIndex index(2, 2);
  for (int id = 0; id < 4; ++id) index.Insert(P({1, 0}), id);
  Rng rng(5);
  std::map<int, int> counts;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[index.NearestUniform(P({1, 0}), &rng)->first];
  }
  for (int id = 0; id < 4; ++id) {
    EXPECT_NEAR(counts[id] / static_cast<double>(n), 0.25, 0.02) << id;
  }
}

TEST(NearestUniformTest, UniformAcrossSiblingSubtrees) {
  // Three items in the sibling set at level 2 of query (0,0,0): two in one
  // subtree, one in another — each must be picked w.p. 1/3 (not 1/2 per
  // subtree).
  PathIndex index(3, 2);
  index.Insert(P({1, 0, 0}), 0);
  index.Insert(P({1, 0, 1}), 1);
  index.Insert(P({1, 1, 0}), 2);
  Rng rng(6);
  std::map<int, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    auto got = index.NearestUniform(P({0, 0, 0}), &rng);
    ASSERT_EQ(got->second, 3);
    ++counts[got->first];
  }
  for (int id = 0; id < 3; ++id) {
    EXPECT_NEAR(counts[id] / static_cast<double>(n), 1.0 / 3.0, 0.02) << id;
  }
}

TEST(NearestUniformTest, ExcludesCloserEmptySubtreeCorrectly) {
  // Items only in the far half; query's own level-1 sibling is empty.
  PathIndex index(3, 2);
  index.Insert(P({1, 1, 1}), 9);
  Rng rng(7);
  auto got = index.NearestUniform(P({0, 0, 0}), &rng);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, 9);
  EXPECT_EQ(got->second, 3);
}

TEST(NearestUniformDeathTest, RequiresRng) {
  PathIndex index(2, 2);
  index.Insert(P({0, 0}), 1);
  EXPECT_DEATH(index.NearestUniform(P({0, 0}), nullptr), "rng required");
}

}  // namespace
}  // namespace tbf
