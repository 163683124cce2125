// Degenerate-geometry stress tests for the k-d tree: collinear points,
// identical coordinates, adversarial query positions.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "geo/kdtree.h"

namespace tbf {
namespace {

int LinearNearest(const std::vector<Point>& pts, const KdTree& tree,
                  const Point& q) {
  int best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < pts.size(); ++i) {
    if (!tree.IsActive(static_cast<int>(i))) continue;
    double d2 = SquaredDistance(q, pts[i]);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<int>(i);
    }
  }
  return best;
}

TEST(KdTreeDegenerateTest, CollinearHorizontal) {
  std::vector<Point> pts;
  for (int i = 0; i < 100; ++i) pts.push_back({static_cast<double>(i), 0.0});
  KdTree tree(pts);
  for (double qx : {-5.0, 0.0, 17.3, 49.5, 99.0, 200.0}) {
    Point q{qx, 3.0};
    EXPECT_EQ(tree.NearestNeighbor(q), LinearNearest(pts, tree, q)) << qx;
  }
}

TEST(KdTreeDegenerateTest, CollinearVerticalWithDeletions) {
  std::vector<Point> pts;
  for (int i = 0; i < 50; ++i) pts.push_back({0.0, static_cast<double>(i)});
  KdTree tree(pts);
  for (int round = 0; round < 50; ++round) {
    Point q{1.0, 24.7};
    int got = tree.NearestNeighbor(q);
    EXPECT_EQ(got, LinearNearest(pts, tree, q)) << "round " << round;
    tree.Deactivate(got);
  }
  EXPECT_EQ(tree.NearestNeighbor({0, 0}), -1);
}

TEST(KdTreeDegenerateTest, ManyDuplicates) {
  std::vector<Point> pts(64, Point{5, 5});
  pts.push_back({6, 5});
  KdTree tree(pts);
  // All duplicates tie at distance 0; smallest id wins.
  EXPECT_EQ(tree.NearestNeighbor({5, 5}), 0);
  for (int i = 0; i < 64; ++i) tree.Deactivate(i);
  EXPECT_EQ(tree.NearestNeighbor({5, 5}), 64);
}

TEST(KdTreeDegenerateTest, ExtremeCoordinates) {
  std::vector<Point> pts = {{1e12, 1e12}, {-1e12, -1e12}, {0, 0}};
  KdTree tree(pts);
  EXPECT_EQ(tree.NearestNeighbor({1e12, 1e12 - 5}), 0);
  EXPECT_EQ(tree.NearestNeighbor({-1, -1}), 2);
}

TEST(KdTreeDegenerateTest, RandomizedDrainRefillCycles) {
  Rng rng(77);
  std::vector<Point> pts;
  for (int i = 0; i < 120; ++i) {
    pts.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  for (int cycle = 0; cycle < 3; ++cycle) {
    // Refill: a fresh tree over the same points.
    KdTree tree(pts);
    EXPECT_EQ(tree.active_count(), 120u);
    // Drain.
    for (int i = 0; i < 120; ++i) {
      Point q{rng.Uniform(0, 10), rng.Uniform(0, 10)};
      int got = tree.NearestNeighbor(q);
      ASSERT_EQ(got, LinearNearest(pts, tree, q)) << "cycle " << cycle;
      tree.Deactivate(got);
    }
    EXPECT_EQ(tree.active_count(), 0u);
    EXPECT_EQ(tree.NearestNeighbor({5, 5}), -1);
  }
}

TEST(KdTreeDegenerateTest, OverflowingQueryStillGetsAnAnswer) {
  // Every squared distance is inf: the tie resolves to the smallest
  // active id, as every other tie does.
  KdTree tree({{0, 0}, {1, 1}, {5, 5}});
  EXPECT_EQ(tree.NearestNeighbor({1e300, -1e300}), 0);
  tree.Deactivate(0);
  EXPECT_EQ(tree.NearestNeighbor({1e300, -1e300}), 1);
  EXPECT_GE(tree.NearestNeighbor({std::nan(""), 0.0}), 1);  // some active id
}

}  // namespace
}  // namespace tbf
