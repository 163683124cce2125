#include "hst/complete_hst.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "geo/grid.h"

namespace tbf {
namespace {

std::vector<Point> ExamplePoints() {
  return {{1, 1}, {2, 3}, {5, 3}, {4, 4}};
}

// The paper's Example 1 tree, exactly: beta = 1/2, pi = <o1, o2, o3, o4>,
// distances in raw (unscaled) units.
CompleteHst BuildExample(uint64_t seed = 3) {
  EuclideanMetric metric;
  Rng rng(seed);
  HstTreeOptions options;
  options.beta = 0.5;
  options.normalize = false;
  options.permutation = {0, 1, 2, 3};
  auto result = CompleteHst::BuildFromPoints(ExamplePoints(), metric, &rng, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).MoveValueUnsafe();
}

TEST(CompleteHstTest, ExampleHasPaperShape) {
  CompleteHst tree = BuildExample();
  // Example 1: D = 4 and the padded tree is binary.
  EXPECT_EQ(tree.depth(), 4);
  EXPECT_EQ(tree.arity(), 2);
  EXPECT_EQ(tree.num_points(), 4);
  EXPECT_DOUBLE_EQ(tree.num_leaves(), 16.0);
}

TEST(CompleteHstTest, LeafPathsHaveDepthLength) {
  CompleteHst tree = BuildExample();
  for (int p = 0; p < tree.num_points(); ++p) {
    EXPECT_EQ(tree.leaf_of_point(p).size(), static_cast<size_t>(tree.depth()));
  }
}

TEST(CompleteHstTest, LeafPathsAreDistinct) {
  CompleteHst tree = BuildExample();
  std::set<LeafPath> seen;
  for (int p = 0; p < tree.num_points(); ++p) {
    EXPECT_TRUE(seen.insert(tree.leaf_of_point(p)).second);
  }
}

TEST(CompleteHstTest, PointOfLeafRoundTrip) {
  CompleteHst tree = BuildExample();
  for (int p = 0; p < tree.num_points(); ++p) {
    auto back = tree.point_of_leaf(tree.leaf_code_of_point(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
}

TEST(CompleteHstTest, FakeLeafHasNoPoint) {
  CompleteHst tree = BuildExample();
  // 4 real points in a 16-leaf complete tree: some path must be fake.
  int fake_count = 0;
  LeafPath path(static_cast<size_t>(tree.depth()), 0);
  for (int mask = 0; mask < 16; ++mask) {
    for (int b = 0; b < 4; ++b) {
      path[static_cast<size_t>(b)] = static_cast<char16_t>((mask >> b) & 1);
    }
    if (!tree.point_of_leaf(tree.codec()->Pack(path)).has_value()) {
      ++fake_count;
    }
  }
  EXPECT_EQ(fake_count, 12);
}

TEST(CompleteHstTest, TreeDistanceMatchesUnpaddedTree) {
  EuclideanMetric metric;
  Rng rng(11);
  auto grid = UniformGridPoints(BBox::Square(100), 5);
  ASSERT_TRUE(grid.ok());
  auto tree_result = HstTree::Build(*grid, metric, &rng);
  ASSERT_TRUE(tree_result.ok());
  auto complete_result = CompleteHst::Build(*tree_result, *grid);
  ASSERT_TRUE(complete_result.ok());
  const CompleteHst& complete = *complete_result;
  for (int a = 0; a < complete.num_points(); ++a) {
    for (int b = 0; b < complete.num_points(); ++b) {
      EXPECT_NEAR(complete.TreeDistance(complete.leaf_code_of_point(a),
                                        complete.leaf_code_of_point(b)),
                  tree_result->TreeDistanceBetweenPoints(a, b), 1e-9)
          << "pair " << a << "," << b;
    }
  }
}

TEST(CompleteHstTest, TreeDistanceDominatesEuclidean) {
  CompleteHst tree = BuildExample();
  auto pts = ExamplePoints();
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      double d_tree = tree.TreeDistance(tree.leaf_code_of_point(a),
                                        tree.leaf_code_of_point(b));
      double d_euclid = EuclideanDistance(pts[static_cast<size_t>(a)],
                                          pts[static_cast<size_t>(b)]);
      EXPECT_GE(d_tree, d_euclid * (1 - 1e-9));
    }
  }
}

TEST(CompleteHstTest, TreeDistanceForLcaLevelScales) {
  CompleteHst tree = BuildExample();
  // Metric distance = (2^{L+2}-4) / scale.
  EXPECT_DOUBLE_EQ(tree.TreeDistanceForLcaLevel(0), 0.0);
  EXPECT_DOUBLE_EQ(tree.TreeDistanceForLcaLevel(1), 4.0 / tree.scale());
  EXPECT_DOUBLE_EQ(tree.TreeDistanceForLcaLevel(3), 28.0 / tree.scale());
}

TEST(CompleteHstTest, MapToNearestPointIsNearest) {
  CompleteHst tree = BuildExample();
  auto pts = ExamplePoints();
  // Exactly on a predefined point.
  EXPECT_EQ(tree.MapToNearestPoint(pts[2]), 2);
  // Near o1(1,1).
  EXPECT_EQ(tree.MapToNearestPoint({0.9, 1.2}), 0);
  // Near o4(4,4).
  EXPECT_EQ(tree.MapToNearestPoint({4.1, 4.2}), 3);
  EXPECT_EQ(tree.MapToNearestLeafCode({4.1, 4.2}), tree.leaf_code_of_point(3));
}

TEST(CompleteHstTest, SiblingSetSizes) {
  CompleteHst tree = BuildExample();
  // c=2: |L_i| = 2^{i-1}.
  EXPECT_DOUBLE_EQ(tree.SiblingSetSize(1), 1.0);
  EXPECT_DOUBLE_EQ(tree.SiblingSetSize(2), 2.0);
  EXPECT_DOUBLE_EQ(tree.SiblingSetSize(3), 4.0);
  EXPECT_DOUBLE_EQ(tree.SiblingSetSize(4), 8.0);
}

TEST(CompleteHstTest, SiblingSetsPartitionLeaves) {
  CompleteHst tree = BuildExample();
  // 1 + sum_i |L_i| = c^D.
  double total = 1.0;
  for (int i = 1; i <= tree.depth(); ++i) total += tree.SiblingSetSize(i);
  EXPECT_DOUBLE_EQ(total, tree.num_leaves());
}

TEST(CompleteHstTest, BuildRejectsMismatchedPoints) {
  EuclideanMetric metric;
  Rng rng(1);
  auto tree = HstTree::Build(ExamplePoints(), metric, &rng);
  ASSERT_TRUE(tree.ok());
  std::vector<Point> wrong = {{0, 0}};
  EXPECT_FALSE(CompleteHst::Build(*tree, wrong).ok());
}

TEST(CompleteHstTest, ArityAtLeastTwoEvenForChains) {
  // Two points: every cluster has <= 2 children but chains are unary;
  // padding must still make the tree at least binary.
  EuclideanMetric metric;
  Rng rng(5);
  std::vector<Point> pts = {{0, 0}, {10, 0}};
  auto tree = CompleteHst::BuildFromPoints(pts, metric, &rng);
  ASSERT_TRUE(tree.ok());
  EXPECT_GE(tree->arity(), 2);
}

TEST(CompleteHstTest, LargerGridRoundTrips) {
  EuclideanMetric metric;
  Rng rng(13);
  auto grid = UniformGridPoints(BBox::Square(200), 16);
  ASSERT_TRUE(grid.ok());
  auto tree = CompleteHst::BuildFromPoints(*grid, metric, &rng);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ(tree->num_points(), 256);
  for (int p = 0; p < tree->num_points(); p += 17) {
    EXPECT_EQ(tree->point_of_leaf(tree->leaf_code_of_point(p)).value_or(-1), p);
  }
}

TEST(CompleteHstTest, CodeKeyedLookupMatchesPathLookup) {
  CompleteHst tree = BuildExample();
  ASSERT_NE(tree.codec(), nullptr);
  // Every leaf of the complete tree, real or fake, resolves through the
  // code map to the point whose unpacked path it is, or to nothing.
  LeafPath path(static_cast<size_t>(tree.depth()), 0);
  for (int mask = 0; mask < 16; ++mask) {
    for (int b = 0; b < 4; ++b) {
      path[static_cast<size_t>(b)] = static_cast<char16_t>((mask >> b) & 1);
    }
    std::optional<int> by_path;
    for (int p = 0; p < tree.num_points(); ++p) {
      if (tree.leaf_of_point(p) == path) by_path = p;
    }
    EXPECT_EQ(tree.point_of_leaf(tree.codec()->Pack(path)), by_path)
        << "mask " << mask;
  }
  for (int p = 0; p < tree.num_points(); ++p) {
    EXPECT_EQ(tree.point_of_leaf(tree.leaf_code_of_point(p)).value_or(-1), p);
  }
}

TEST(CompleteHstTest, MalformedCodesYieldNulloptNotCrash) {
  CompleteHst tree = BuildExample();
  const LeafCode real = tree.leaf_code_of_point(0);
  EXPECT_FALSE(tree.point_of_leaf(real | 1).has_value());  // stray low bit
  EXPECT_FALSE(tree.point_of_leaf(~LeafCode{0}).has_value());
}

TEST(CompleteHstTest, WideShapeGetsACodecAndWiderIsRefused) {
  // depth 65 at arity 2 needs 65 bits: the last digit lands in the code's
  // low word, and both lookups serve through the code map.
  const int depth = 65;
  std::vector<Point> pts = {{0, 0}, {10, 0}, {0, 10}};
  const LeafCodec codec(depth, 2);
  std::vector<LeafPath> paths;
  std::vector<LeafCode> codes;
  for (int p = 0; p < 3; ++p) {
    LeafPath path(static_cast<size_t>(depth), 0);
    path[static_cast<size_t>(depth - 1)] = static_cast<char16_t>(p % 2);
    path[static_cast<size_t>(depth - 2)] = static_cast<char16_t>(p / 2);
    paths.push_back(path);
    codes.push_back(codec.Pack(path));
  }
  auto tree = CompleteHst::FromParts(depth, 2, 1.0, pts, codes);
  ASSERT_TRUE(tree.ok()) << tree.status();
  ASSERT_NE(tree->codec(), nullptr);
  EXPECT_EQ(tree->codec()->low_bits(), 63);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(tree->leaf_of_point(p), paths[static_cast<size_t>(p)]);
    EXPECT_EQ(tree->point_of_leaf(tree->leaf_code_of_point(p)).value_or(-1),
              p);
  }
  EXPECT_EQ(static_cast<uint64_t>(tree->leaf_code_of_point(1)),
            uint64_t{1} << 63);
  LeafPath fake(static_cast<size_t>(depth), 0);
  fake[0] = 1;
  EXPECT_FALSE(tree->point_of_leaf(codec.Pack(fake)).has_value());

  // 129 binary digits fit no code: refused, never published.
  auto refused = CompleteHst::FromParts(129, 2, 1.0, pts, {0, 1, 2});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("needs 129 bits"),
            std::string::npos)
      << refused.status();
}

TEST(CompleteHstTest, DenseSetIsSnappedUntilItFitsCodes) {
  // Two points 1e-40 apart next to one 1 away: depth 135, past 128 bits
  // even at arity 2. Build refuses the raw tree; BuildFromPoints merges
  // the close pair on a coarser lattice and publishes two points.
  const std::vector<Point> pts = {{0, 0}, {1e-40, 0}, {1, 0}};
  EuclideanMetric metric;
  Rng raw_rng(5);
  auto raw = HstTree::Build(pts, metric, &raw_rng);
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(raw->depth(), 135);
  auto refused = CompleteHst::Build(*raw, pts);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  Rng rng(5);
  auto tree = CompleteHst::BuildFromPoints(pts, metric, &rng);
  ASSERT_TRUE(tree.ok()) << tree.status();
  ASSERT_EQ(tree->num_points(), 2);
  EXPECT_EQ(tree->points()[0], Point(0, 0));
  EXPECT_NEAR(tree->points()[1].x, 1.0, 1e-30);
  EXPECT_TRUE(LeafCodec::Fits(tree->depth(), tree->arity()));
  EXPECT_EQ(tree->MapToNearestPoint(pts[1]), 0);
}

TEST(CompleteHstTest, DenseRandomSetKeepsEveryDistinctPoint) {
  // 300 random points plus a twin 1e-12 from the first: the tree needs
  // more than 128 bits. The snap merges the twin and moves no point by
  // more than a hair.
  Rng gen(17);
  std::vector<Point> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({gen.Uniform(0, 100), gen.Uniform(0, 100)});
  }
  pts.push_back({pts[0].x + 1e-12, pts[0].y});
  EuclideanMetric metric;
  Rng raw_rng(3);
  auto raw = HstTree::Build(pts, metric, &raw_rng);
  ASSERT_TRUE(raw.ok()) << raw.status();
  ASSERT_FALSE(LeafCodec::Fits(raw->depth(), std::max(2, raw->max_branching())))
      << "depth " << raw->depth() << " arity " << raw->max_branching();

  Rng rng(3);
  auto tree = CompleteHst::BuildFromPoints(pts, metric, &rng);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ(tree->num_points(), 300);
  EXPECT_LT(tree->depth(), raw->depth());
  for (const Point& p : pts) {
    const Point& q = tree->points()[static_cast<size_t>(tree->MapToNearestPoint(p))];
    EXPECT_LT(EuclideanDistance(p, q), 1e-6) << p;
  }
}

TEST(CompleteHstTest, OverflowingLocationStillMapsToAPoint) {
  CompleteHst tree = BuildExample();
  const int id = tree.MapToNearestPoint({1e300, -1e300});
  EXPECT_GE(id, 0);
  EXPECT_LT(id, tree.num_points());
}

TEST(CompleteHstTest, FromPartsRejectsDuplicateLeafThroughCodeMap) {
  std::vector<Point> pts = {{0, 0}, {10, 0}, {0, 10}};
  const LeafCode same = LeafCodec(3, 2).Pack(LeafPath(3, 1));
  auto tree = CompleteHst::FromParts(3, 2, 1.0, pts, {same, 0, same});
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tree.status().message().find(
                "row 2: duplicate leaf path (first seen at row 0)"),
            std::string::npos)
      << tree.status();
}

}  // namespace
}  // namespace tbf
