#include "hst/complete_hst.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <optional>
#include <set>
#include <string>

#include "geo/grid.h"
#include "geo/kdtree.h"
#include "geo/lattice.h"
#include "hst/tree_distance.h"

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
                  TreeDistanceBetweenPoints(*tree_result, a, b), 1e-9)
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

// ---- Nearest-point mapping: the lattice path against a k-d tree oracle ----

// Coordinate values probing one axis of a lattice: every node, every
// midpoint between neighbours and both quarter points, each node and
// midpoint also one ulp to either side (the rounding and tie boundaries).
std::vector<double> AxisProbes(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<double> out;
  auto with_neighbours = [&out](double v) {
    out.push_back(v);
    out.push_back(std::nextafter(v, -HUGE_VAL));
    out.push_back(std::nextafter(v, HUGE_VAL));
  };
  for (size_t i = 0; i < values.size(); ++i) {
    with_neighbours(values[i]);
    if (i + 1 == values.size()) break;
    const double gap = values[i + 1] - values[i];
    with_neighbours(values[i] + gap / 2);
    out.push_back(values[i] + gap / 4);
    out.push_back(values[i] + 3 * gap / 4);
  }
  return out;
}

// Queries for `points`: the product of both axes' probes (capped, for
// sets with many distinct coordinates), random points in the box, points
// just and well outside it on every side, far ones and non-finite ones.
std::vector<Point> ProbeQueries(const std::vector<Point>& points, uint64_t seed) {
  std::vector<double> xs, ys;
  for (const Point& p : points) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  const std::vector<double> px = AxisProbes(xs);
  const std::vector<double> py = AxisProbes(ys);
  std::vector<Point> out;
  if (px.size() * py.size() <= 100000) {
    for (double x : px) {
      for (double y : py) out.emplace_back(x, y);
    }
  }
  const double lo_x = *std::min_element(xs.begin(), xs.end());
  const double hi_x = *std::max_element(xs.begin(), xs.end());
  const double lo_y = *std::min_element(ys.begin(), ys.end());
  const double hi_y = *std::max_element(ys.begin(), ys.end());
  Rng rng(seed);
  for (int i = 0; i < 2000; ++i) {
    out.emplace_back(rng.Uniform(lo_x, hi_x), rng.Uniform(lo_y, hi_y));
  }
  const double span = std::max(hi_x - lo_x, hi_y - lo_y);
  for (double margin : {0.0, 0.01, 0.3, 2.0}) {
    const double d = margin * span;
    const double below_x = d == 0 ? std::nextafter(lo_x, -HUGE_VAL) : lo_x - d;
    const double above_x = d == 0 ? std::nextafter(hi_x, HUGE_VAL) : hi_x + d;
    const double below_y = d == 0 ? std::nextafter(lo_y, -HUGE_VAL) : lo_y - d;
    const double above_y = d == 0 ? std::nextafter(hi_y, HUGE_VAL) : hi_y + d;
    for (int i = 0; i < 50; ++i) {
      const double x = rng.Uniform(lo_x, hi_x);
      const double y = rng.Uniform(lo_y, hi_y);
      out.insert(out.end(), {{below_x, y}, {above_x, y}, {x, below_y}, {x, above_y}});
    }
    out.insert(out.end(), {{below_x, below_y}, {below_x, above_y},
                           {above_x, below_y}, {above_x, above_y}});
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  out.insert(out.end(), {{1e300, -1e300}, {-1e300, 1e300}, {1e154, 1e154},
                         {nan, lo_y}, {lo_x, nan}, {nan, nan}, {inf, lo_y},
                         {lo_x, -inf}, {-inf, inf}, {lo_x, hi_y + 1e300}});
  return out;
}

// MapToNearestPoint (and the leaf-code form) must equal an independent
// k-d tree over the published points on every probe.
void ExpectMapsLikeKdTree(const CompleteHst& tree, uint64_t seed) {
  const KdTree oracle(tree.points());
  for (const Point& q : ProbeQueries(tree.points(), seed)) {
    const int expected = oracle.NearestNeighbor(q);
    ASSERT_EQ(tree.MapToNearestPoint(q), expected)
        << std::setprecision(17) << "query " << q;
    ASSERT_EQ(tree.MapToNearestLeafCode(q), tree.leaf_code_of_point(expected));
  }
}

CompleteHst BuildOver(const std::vector<Point>& points, uint64_t seed = 11) {
  EuclideanMetric metric;
  Rng rng(seed);
  auto tree = CompleteHst::BuildFromPoints(points, metric, &rng);
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).MoveValueUnsafe();
}

// The snapshot parser's path: the same parts, every mapper deferred.
CompleteHst Reloaded(const CompleteHst& tree, std::vector<Point> points) {
  std::vector<LeafCode> codes;
  for (int p = 0; p < tree.num_points(); ++p) {
    codes.push_back(tree.leaf_code_of_point(p));
  }
  codes.resize(points.size());
  auto out = CompleteHst::FromParts(tree.depth(), tree.arity(), tree.scale(),
                                    std::move(points), std::move(codes));
  EXPECT_TRUE(out.ok()) << out.status();
  return std::move(out).MoveValueUnsafe();
}

// `xs` x `ys` in a shuffled id order, so equal-distance ties are decided
// by ids the row-major layout does not predict.
std::vector<Point> ShuffledLattice(const std::vector<double>& xs,
                                   const std::vector<double>& ys, uint64_t seed) {
  std::vector<Point> out;
  for (double x : xs) {
    for (double y : ys) out.emplace_back(x, y);
  }
  Rng rng(seed);
  rng.Shuffle(&out);
  return out;
}

TEST(LatticeMapperTest, LatticeSetsMapLikeTheKdTree) {
  auto grid = UniformGridPoints(BBox::Square(200), 32);
  ASSERT_TRUE(grid.ok());
  // 7 x 3, steps 1.25 and 4.5, the x values up to 0.05 off even spacing.
  const std::vector<double> uneven_x = {-3.5, -2.2, -1.0, 0.27, 1.5, 2.76, 4.0};
  const std::vector<double> uneven_y = {10.0, 14.5, 19.0};
  const std::vector<std::vector<Point>> sets = {
      *grid,
      ShuffledLattice(uneven_x, uneven_y, 3),
      ShuffledLattice({0.0, 1.0}, {-2.0, 5.0}, 4),
  };
  for (size_t i = 0; i < sets.size(); ++i) {
    SCOPED_TRACE("set " + std::to_string(i));
    const CompleteHst tree = BuildOver(sets[i]);
    ASSERT_TRUE(PointLattice::Detect(tree.points()).has_value());
    ExpectMapsLikeKdTree(tree, i);
    ExpectMapsLikeKdTree(Reloaded(tree, tree.points()), i);
  }
}

TEST(LatticeMapperTest, NearLatticeSetsKeepTheKdTree) {
  auto grid_result = UniformGridPoints(BBox::Square(200), 12);
  ASSERT_TRUE(grid_result.ok());
  const std::vector<Point> grid = *grid_result;
  const CompleteHst grid_tree = BuildOver(grid);

  std::vector<Point> moved = grid;
  moved[29].x = std::nextafter(moved[29].x, HUGE_VAL);
  std::vector<Point> missing = grid;
  missing.pop_back();
  std::vector<Point> duplicate = grid;
  duplicate[40] = duplicate[41];
  // Points 0 and 12 are the first two of the lowest row.
  std::vector<Point> duplicate_in_row = grid;
  duplicate_in_row[12] = duplicate_in_row[0];
  std::vector<Point> line;
  for (int i = 0; i < 20; ++i) line.emplace_back(3.0 * i, 7.0);
  // Gaps 1, 1 and 5: a lattice, but too uneven to locate by rounding.
  const std::vector<Point> uneven =
      ShuffledLattice({0.0, 1.0, 2.0, 7.0}, {0.0, 1.0, 2.0}, 5);
  // 300 random points and a twin: BuildFromPoints snaps them onto a
  // lattice's nodes, which leaves most of its cells empty.
  Rng gen(17);
  std::vector<Point> dense;
  for (int i = 0; i < 300; ++i) {
    dense.push_back({gen.Uniform(0, 100), gen.Uniform(0, 100)});
  }
  dense.push_back({dense[0].x + 1e-12, dense[0].y});

  std::vector<std::pair<std::string, CompleteHst>> trees;
  trees.emplace_back("moved", Reloaded(grid_tree, moved));
  trees.emplace_back("missing", Reloaded(grid_tree, missing));
  trees.emplace_back("duplicate", Reloaded(grid_tree, duplicate));
  trees.emplace_back("duplicate in row", Reloaded(grid_tree, duplicate_in_row));
  trees.emplace_back("line", BuildOver(line));
  trees.emplace_back("uneven", BuildOver(uneven));
  trees.emplace_back("dense", BuildOver(dense));
  for (const auto& [name, tree] : trees) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(PointLattice::Detect(tree.points()).has_value());
    ExpectMapsLikeKdTree(tree, 7);
  }
  EXPECT_EQ(trees.back().second.num_points(), 300);
}

}  // namespace
}  // namespace tbf
