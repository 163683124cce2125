#include "hst/hst_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/math.h"
#include "common/stats.h"
#include "geo/grid.h"
#include "hst/tree_distance.h"

namespace tbf {
namespace {

std::vector<Point> ExamplePoints() {
  // Paper Example 1: o1(1,1), o2(2,3), o3(5,3), o4(4,4).
  return {{1, 1}, {2, 3}, {5, 3}, {4, 4}};
}

TEST(HstTreeTest, RejectsEmptyInput) {
  EuclideanMetric metric;
  Rng rng(1);
  EXPECT_FALSE(HstTree::Build({}, metric, &rng).ok());
}

TEST(HstTreeTest, RejectsNullRng) {
  EuclideanMetric metric;
  EXPECT_FALSE(HstTree::Build(ExamplePoints(), metric, nullptr).ok());
}

TEST(HstTreeTest, RejectsDuplicatePoints) {
  EuclideanMetric metric;
  Rng rng(1);
  std::vector<Point> pts = {{0, 0}, {0, 0}, {5, 5}};
  auto result = HstTree::Build(pts, metric, &rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(HstTreeTest, RejectsUnnormalizedCloseMetric) {
  EuclideanMetric metric;
  Rng rng(1);
  HstTreeOptions options;
  options.normalize = false;
  std::vector<Point> pts = {{0, 0}, {1, 0}};  // min dist 1 < 2.01
  auto result = HstTree::Build(pts, metric, &rng, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(HstTreeTest, AcceptsUnnormalizedSeparatedMetric) {
  EuclideanMetric metric;
  Rng rng(1);
  HstTreeOptions options;
  options.normalize = false;
  std::vector<Point> pts = {{0, 0}, {10, 0}, {0, 10}};
  auto result = HstTree::Build(pts, metric, &rng, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->scale(), 1.0);
}

TEST(HstTreeTest, SinglePointTree) {
  EuclideanMetric metric;
  Rng rng(1);
  auto result = HstTree::Build({{7, 7}}, metric, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->depth(), 1);
  EXPECT_EQ(result->num_points(), 1u);
  EXPECT_EQ(TreeDistanceBetweenPoints(*result, 0, 0), 0.0);
}

TEST(HstTreeTest, ExampleDepthMatchesPaperFormula) {
  // Scaled units: D = ceil(log2(2 * max_dist * scale)).
  EuclideanMetric metric;
  Rng rng(3);
  auto tree = HstTree::Build(ExamplePoints(), metric, &rng);
  ASSERT_TRUE(tree.ok());
  double min_dist = MinPairwiseDistance(ExamplePoints(), metric);
  double max_dist = MaxPairwiseDistance(ExamplePoints(), metric);
  double scale = HstTreeOptions::kMinSeparation / min_dist;
  int expected = static_cast<int>(std::ceil(std::log2(2 * max_dist * scale)));
  EXPECT_EQ(tree->depth(), expected);
  EXPECT_EQ(tree->depth(), 4);  // same D as the paper's Example 1
  EXPECT_DOUBLE_EQ(tree->scale(), scale);
}

TEST(HstTreeTest, FixedBetaIsUsed) {
  EuclideanMetric metric;
  Rng rng(3);
  HstTreeOptions options;
  options.beta = 0.5;
  auto tree = HstTree::Build(ExamplePoints(), metric, &rng, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_DOUBLE_EQ(tree->beta(), 0.5);
}

TEST(HstTreeTest, SampledBetaInRange) {
  EuclideanMetric metric;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    auto tree = HstTree::Build(ExamplePoints(), metric, &rng);
    ASSERT_TRUE(tree.ok());
    EXPECT_GE(tree->beta(), 0.5);
    EXPECT_LT(tree->beta(), 1.0);
  }
}

// Structural invariants, swept over seeds and point sets.
class HstTreeInvariantTest : public testing::TestWithParam<uint64_t> {};

TEST_P(HstTreeInvariantTest, StructureIsConsistent) {
  Rng data_rng(GetParam() * 7919 + 1);
  auto points_result = RandomUniformPoints(BBox::Square(100), 60, &data_rng);
  ASSERT_TRUE(points_result.ok());
  std::vector<Point> points = FilterMinSeparation(*points_result, 0.5);
  EuclideanMetric metric;
  Rng rng(GetParam());
  auto tree_result = HstTree::Build(points, metric, &rng);
  ASSERT_TRUE(tree_result.ok()) << tree_result.status();
  const HstTree& tree = *tree_result;

  // Root holds every point at level D.
  const HstNode& root = tree.nodes()[static_cast<size_t>(tree.root())];
  EXPECT_EQ(root.level, tree.depth());
  EXPECT_EQ(root.point_ids.size(), points.size());
  EXPECT_EQ(root.parent, -1);

  size_t leaves = 0;
  for (size_t i = 0; i < tree.nodes().size(); ++i) {
    const HstNode& node = tree.nodes()[i];
    if (node.level == 0) {
      // Leaves: singletons, no children.
      EXPECT_TRUE(node.children.empty());
      EXPECT_EQ(node.point_ids.size(), 1u);
      ++leaves;
    } else {
      // Internal: children exactly partition the cluster one level down.
      EXPECT_FALSE(node.children.empty());
      std::multiset<int> child_points;
      for (int child : node.children) {
        const HstNode& cn = tree.nodes()[static_cast<size_t>(child)];
        EXPECT_EQ(cn.level, node.level - 1);
        EXPECT_EQ(cn.parent, static_cast<int>(i));
        child_points.insert(cn.point_ids.begin(), cn.point_ids.end());
      }
      std::multiset<int> own_points(node.point_ids.begin(), node.point_ids.end());
      EXPECT_EQ(child_points, own_points);
    }
  }
  EXPECT_EQ(leaves, points.size());
  EXPECT_GE(tree.max_branching(), 1);

  // Every point maps to a leaf holding exactly it.
  for (size_t p = 0; p < points.size(); ++p) {
    int leaf = tree.leaf_of_point(static_cast<int>(p));
    ASSERT_GE(leaf, 0);
    EXPECT_EQ(tree.nodes()[static_cast<size_t>(leaf)].point_ids[0],
              static_cast<int>(p));
  }
}

TEST_P(HstTreeInvariantTest, TreeDistanceDominatesMetric) {
  // d(u,v) <= d_T(u,v): the defining lower-distortion property of HSTs.
  Rng data_rng(GetParam() * 104729 + 3);
  auto points_result = RandomUniformPoints(BBox::Square(80), 40, &data_rng);
  ASSERT_TRUE(points_result.ok());
  std::vector<Point> points = FilterMinSeparation(*points_result, 0.5);
  EuclideanMetric metric;
  Rng rng(GetParam());
  auto tree = HstTree::Build(points, metric, &rng);
  ASSERT_TRUE(tree.ok());
  for (size_t a = 0; a < points.size(); ++a) {
    for (size_t b = a + 1; b < points.size(); ++b) {
      double d_metric = metric.Distance(points[a], points[b]);
      double d_tree = TreeDistanceBetweenPoints(*tree, static_cast<int>(a),
                                                static_cast<int>(b));
      EXPECT_GE(d_tree, d_metric * (1 - 1e-9))
          << "points " << a << "," << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HstTreeInvariantTest, testing::Range<uint64_t>(0, 8));

TEST(HstTreeTest, ExpectedDistortionIsLogarithmic) {
  // E[d_T(u,v)] <= O(log n) d(u,v): check the average over tree draws stays
  // below a generous constant * log2(n) multiple.
  EuclideanMetric metric;
  Rng data_rng(2024);
  auto points_result = RandomUniformPoints(BBox::Square(100), 50, &data_rng);
  ASSERT_TRUE(points_result.ok());
  std::vector<Point> points = FilterMinSeparation(*points_result, 1.0);
  const int trials = 40;
  RunningStat worst_ratio;
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(static_cast<uint64_t>(trial));
    auto tree = HstTree::Build(points, metric, &rng);
    ASSERT_TRUE(tree.ok());
    double max_ratio = 0;
    for (size_t a = 0; a < points.size(); ++a) {
      for (size_t b = a + 1; b < points.size(); ++b) {
        double ratio = TreeDistanceBetweenPoints(*tree, static_cast<int>(a),
                                                 static_cast<int>(b)) /
                       metric.Distance(points[a], points[b]);
        max_ratio = std::max(max_ratio, ratio);
      }
    }
    worst_ratio.Add(max_ratio);
  }
  // log2(50) ~ 5.6; the FRT constant is ~8 log n in the worst pair. Use a
  // loose sanity ceiling (catches gross bugs, not the constant).
  EXPECT_LT(worst_ratio.mean(), 150 * std::log2(50.0));
}

TEST(HstTreeTest, DeterministicGivenSeed) {
  EuclideanMetric metric;
  Rng rng1(77), rng2(77);
  auto t1 = HstTree::Build(ExamplePoints(), metric, &rng1);
  auto t2 = HstTree::Build(ExamplePoints(), metric, &rng2);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t1->depth(), t2->depth());
  EXPECT_EQ(t1->beta(), t2->beta());
  EXPECT_EQ(t1->nodes().size(), t2->nodes().size());
  for (size_t p = 0; p < 4; ++p) {
    for (size_t q = 0; q < 4; ++q) {
      EXPECT_EQ(TreeDistanceBetweenPoints(*t1, static_cast<int>(p),
                                          static_cast<int>(q)),
                TreeDistanceBetweenPoints(*t2, static_cast<int>(p),
                                          static_cast<int>(q)));
    }
  }
}

TEST(HstTreeTest, ManhattanMetricSupported) {
  ManhattanMetric metric;
  Rng rng(5);
  auto tree = HstTree::Build(ExamplePoints(), metric, &rng);
  ASSERT_TRUE(tree.ok());
  // Lower bound property holds in the chosen metric.
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      double d = metric.Distance(ExamplePoints()[static_cast<size_t>(a)],
                                 ExamplePoints()[static_cast<size_t>(b)]);
      EXPECT_GE(TreeDistanceBetweenPoints(*tree, a, b), d * (1 - 1e-9));
    }
  }
}

TEST(HstTreeTest, GridPointsBuildCleanly) {
  EuclideanMetric metric;
  auto grid = UniformGridPoints(BBox::Square(200), 8);
  ASSERT_TRUE(grid.ok());
  Rng rng(9);
  auto tree = HstTree::Build(*grid, metric, &rng);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_points(), 64u);
  EXPECT_GE(tree->max_branching(), 2);
}

}  // namespace
}  // namespace tbf
