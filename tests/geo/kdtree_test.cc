#include "geo/kdtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"

namespace tbf {
namespace {

// Reference linear-scan NN with the same tie-break (smallest id).
int LinearNearest(const std::vector<Point>& pts, const std::vector<bool>& active,
                  const Point& q) {
  int best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < pts.size(); ++i) {
    if (!active[i]) continue;
    double d2 = SquaredDistance(q, pts[i]);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<int>(i);
    }
  }
  return best;
}

TEST(KdTreeTest, EmptyQueries) {
  KdTree tree(std::vector<Point>{});
  EXPECT_EQ(tree.NearestNeighbor({0, 0}), -1);
}

TEST(KdTreeTest, SinglePoint) {
  KdTree tree({{3, 4}});
  EXPECT_EQ(tree.NearestNeighbor({0, 0}), 0);
  tree.Deactivate(0);
  EXPECT_EQ(tree.NearestNeighbor({0, 0}), -1);
}

TEST(KdTreeTest, NearestMatchesLinearScanRandom) {
  Rng rng(1234);
  std::vector<Point> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  KdTree tree(pts);
  std::vector<bool> active(pts.size(), true);
  for (int q = 0; q < 200; ++q) {
    Point query{rng.Uniform(-10, 110), rng.Uniform(-10, 110)};
    EXPECT_EQ(tree.NearestNeighbor(query), LinearNearest(pts, active, query));
  }
}

TEST(KdTreeTest, NearestUnderDeletions) {
  Rng rng(99);
  std::vector<Point> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.Uniform(0, 50), rng.Uniform(0, 50)});
  }
  KdTree tree(pts);
  std::vector<bool> active(pts.size(), true);
  // Interleave queries and deletions until the structure empties.
  for (int round = 0; round < 300; ++round) {
    Point query{rng.Uniform(0, 50), rng.Uniform(0, 50)};
    int got = tree.NearestNeighbor(query);
    int want = LinearNearest(pts, active, query);
    ASSERT_EQ(got, want) << "round " << round;
    if (want >= 0) {
      tree.Deactivate(want);
      active[static_cast<size_t>(want)] = false;
    }
  }
  EXPECT_EQ(tree.active_count(), 0u);
  EXPECT_EQ(tree.NearestNeighbor({0, 0}), -1);
}

TEST(KdTreeTest, DuplicatePointsTieBreakSmallestId) {
  std::vector<Point> pts = {{5, 5}, {5, 5}, {5, 5}};
  KdTree tree(pts);
  EXPECT_EQ(tree.NearestNeighbor({5, 5}), 0);
  tree.Deactivate(0);
  EXPECT_EQ(tree.NearestNeighbor({5, 5}), 1);
}

TEST(KdTreeTest, PointAccessors) {
  std::vector<Point> pts = {{1, 2}, {3, 4}};
  KdTree tree(pts);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.point(1), Point(3, 4));
  EXPECT_TRUE(tree.IsActive(0));
  tree.Deactivate(0);
  EXPECT_FALSE(tree.IsActive(0));
}

}  // namespace
}  // namespace tbf
