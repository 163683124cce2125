#include "hst/hst_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "hst/path_index.h"

namespace tbf {
namespace {

LeafPath P(std::initializer_list<int> digits) {
  LeafPath p;
  for (int d : digits) p.push_back(static_cast<char16_t>(d));
  return p;
}

TEST(HstIndexTest, EmptyIndex) {
  PathIndex index(3, 2);
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.Nearest(P({0, 0, 0})).has_value());
  EXPECT_TRUE(index.NearestK(P({0, 0, 0}), 5).empty());
}

TEST(HstIndexTest, SameLeafIsLevelZero) {
  PathIndex index(3, 2);
  index.Insert(P({1, 0, 1}), 7);
  auto nearest = index.Nearest(P({1, 0, 1}));
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->first, 7);
  EXPECT_EQ(nearest->second, 0);
}

TEST(HstIndexTest, SiblingIsLevelOne) {
  PathIndex index(3, 2);
  index.Insert(P({1, 0, 0}), 7);
  auto nearest = index.Nearest(P({1, 0, 1}));
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->first, 7);
  EXPECT_EQ(nearest->second, 1);
}

TEST(HstIndexTest, PrefersLowerLevel) {
  PathIndex index(3, 2);
  index.Insert(P({0, 0, 0}), 1);  // LCA with query at level 3
  index.Insert(P({1, 1, 0}), 2);  // LCA at level 1
  auto nearest = index.Nearest(P({1, 1, 1}));
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->first, 2);
  EXPECT_EQ(nearest->second, 1);
}

TEST(HstIndexTest, RemoveMakesFartherVisible) {
  PathIndex index(3, 2);
  index.Insert(P({1, 1, 0}), 2);
  index.Insert(P({0, 0, 0}), 1);
  index.Remove(P({1, 1, 0}), 2);
  auto nearest = index.Nearest(P({1, 1, 1}));
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->first, 1);
  EXPECT_EQ(nearest->second, 3);
  EXPECT_EQ(index.size(), 1u);
}

TEST(HstIndexTest, TieBreakSmallestIdWithinLeaf) {
  PathIndex index(2, 3);
  index.Insert(P({2, 1}), 9);
  index.Insert(P({2, 1}), 4);
  auto nearest = index.Nearest(P({2, 1}));
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->first, 4);
}

TEST(HstIndexTest, TieBreakLexicographicAcrossLeaves) {
  PathIndex index(2, 3);
  // Both at LCA level 2 from query (0,0): paths (1,*) and (2,*).
  index.Insert(P({2, 0}), 1);
  index.Insert(P({1, 2}), 2);
  auto nearest = index.Nearest(P({0, 0}));
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->first, 2);  // path (1,2) < (2,0) lexicographically
}

TEST(HstIndexTest, NearestKOrdersByLevel) {
  PathIndex index(3, 2);
  index.Insert(P({1, 1, 1}), 10);  // level 0 from query
  index.Insert(P({1, 1, 0}), 11);  // level 1
  index.Insert(P({1, 0, 0}), 12);  // level 2
  index.Insert(P({0, 0, 0}), 13);  // level 3
  auto result = index.NearestK(P({1, 1, 1}), 10);
  ASSERT_EQ(result.size(), 4u);
  EXPECT_EQ(result[0], (std::pair<int, int>{10, 0}));
  EXPECT_EQ(result[1], (std::pair<int, int>{11, 1}));
  EXPECT_EQ(result[2], (std::pair<int, int>{12, 2}));
  EXPECT_EQ(result[3], (std::pair<int, int>{13, 3}));
}

TEST(HstIndexTest, NearestKRespectsLimit) {
  PathIndex index(3, 2);
  for (int i = 0; i < 6; ++i) {
    index.Insert(P({i % 2, (i / 2) % 2, 0}), i);
  }
  EXPECT_EQ(index.NearestK(P({0, 0, 0}), 3).size(), 3u);
  EXPECT_EQ(index.NearestK(P({0, 0, 0}), 100).size(), 6u);
}

TEST(HstIndexTest, DuplicateInsertAborts) {
  PathIndex index(2, 2);
  index.Insert(P({0, 0}), 1);
  EXPECT_DEATH(index.Insert(P({0, 1}), 1), "duplicate item");
  EXPECT_DEATH(index.Insert(P({0, 0}), 1), "duplicate item");
}

TEST(HstIndexTest, RemoveMissingAborts) {
  PathIndex index(2, 2);
  EXPECT_DEATH(index.Remove(P({0, 0}), 1), "not registered");
  index.Insert(P({0, 0}), 1);
  EXPECT_DEATH(index.Remove(P({0, 1}), 1), "not registered");
}

// Brute-force comparison: Nearest must equal a linear scan with the
// canonical (level, path, id) ordering.
class HstIndexRandomTest : public testing::TestWithParam<uint64_t> {};

TEST_P(HstIndexRandomTest, MatchesBruteForce) {
  const int depth = 5;
  const int arity = 3;
  Rng rng(GetParam());
  PathIndex index(depth, arity);
  std::vector<LeafPath> items;
  for (int i = 0; i < 60; ++i) {
    items.push_back(RandomLeafPath(depth, arity, &rng));
    index.Insert(items.back(), i);
  }
  std::vector<bool> present(items.size(), true);

  auto brute = [&](const LeafPath& query) -> std::optional<std::pair<int, int>> {
    int best = -1;
    int best_level = std::numeric_limits<int>::max();
    for (size_t i = 0; i < items.size(); ++i) {
      if (!present[i]) continue;
      int level = LcaLevel(query, items[i]);
      bool better = false;
      if (level < best_level) {
        better = true;
      } else if (level == best_level && best >= 0) {
        const LeafPath& cur = items[i];
        const LeafPath& champ = items[static_cast<size_t>(best)];
        if (cur < champ || (cur == champ && static_cast<int>(i) < best)) {
          better = true;
        }
      }
      if (better) {
        best_level = level;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return std::nullopt;
    return std::make_pair(best, best_level);
  };

  // Interleave queries and removals until drained.
  for (int round = 0; round < 80; ++round) {
    LeafPath query = RandomLeafPath(depth, arity, &rng);
    auto got = index.Nearest(query);
    auto want = brute(query);
    ASSERT_EQ(got.has_value(), want.has_value()) << "round " << round;
    if (!got) break;
    EXPECT_EQ(*got, *want) << "round " << round;
    if (round % 2 == 0) {
      index.Remove(items[static_cast<size_t>(got->first)], got->first);
      present[static_cast<size_t>(got->first)] = false;
    }
  }
}

TEST_P(HstIndexRandomTest, NearestKIsSortedByLevel) {
  const int depth = 4;
  const int arity = 2;
  Rng rng(GetParam() + 1000);
  PathIndex index(depth, arity);
  for (int i = 0; i < 30; ++i) {
    index.Insert(RandomLeafPath(depth, arity, &rng), i);
  }
  LeafPath query = RandomLeafPath(depth, arity, &rng);
  auto result = index.NearestK(query, 30);
  ASSERT_EQ(result.size(), 30u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].second, result[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HstIndexRandomTest, testing::Range<uint64_t>(0, 6));

}  // namespace
}  // namespace tbf
