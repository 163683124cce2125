#include "core/tbf.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "geo/grid.h"

namespace tbf {
namespace {

TbfFramework BuildFramework(double epsilon = 0.6, uint64_t seed = 1,
                            int grid_side = 8, double space = 200.0) {
  auto grid = UniformGridPoints(BBox::Square(space), grid_side);
  EXPECT_TRUE(grid.ok());
  EuclideanMetric metric;
  Rng rng(seed);
  TbfOptions options;
  options.epsilon = epsilon;
  auto framework = TbfFramework::Build(*grid, metric, &rng, options);
  EXPECT_TRUE(framework.ok()) << framework.status();
  return std::move(framework).MoveValueUnsafe();
}

TEST(TbfFrameworkTest, BuildExposesTreeAndMechanism) {
  TbfFramework f = BuildFramework();
  EXPECT_EQ(f.tree().num_points(), 64);
  EXPECT_DOUBLE_EQ(f.epsilon(), 0.6);
  EXPECT_EQ(f.mechanism().depth(), f.tree().depth());
  EXPECT_EQ(f.mechanism().arity(), f.tree().arity());
}

TEST(TbfFrameworkTest, BuildFailsOnBadInputs) {
  EuclideanMetric metric;
  Rng rng(1);
  EXPECT_FALSE(TbfFramework::Build({}, metric, &rng).ok());
  TbfOptions bad;
  bad.epsilon = 0.0;
  auto grid = UniformGridPoints(BBox::Square(10), 3);
  ASSERT_TRUE(grid.ok());
  EXPECT_FALSE(TbfFramework::Build(*grid, metric, &rng, bad).ok());
  bad.epsilon = std::nan("");
  EXPECT_FALSE(TbfFramework::Build(*grid, metric, &rng, bad).ok());
}

TEST(TbfFrameworkTest, TrueLeafIsNearestPredefined) {
  TbfFramework f = BuildFramework();
  // Grid over [0,200], side 8: spacing 200/7 ~ 28.57; point (0,0) is id 0.
  EXPECT_EQ(f.TrueLeaf({1, 1}), f.tree().leaf_code_of_point(0));
  // Query exactly on a predefined point.
  const Point p = f.tree().points()[10];
  EXPECT_EQ(f.TrueLeaf(p), f.tree().leaf_code_of_point(10));
}

TEST(TbfFrameworkTest, ObfuscateLocationProducesValidLeaf) {
  TbfFramework f = BuildFramework();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const LeafCode z = f.ObfuscateLocation({100, 100}, &rng);
    EXPECT_TRUE(f.codec()->Validate(z).ok());
  }
}

TEST(TbfFrameworkTest, HigherEpsilonReportsCloserToTruth) {
  // The expected tree distance between the true and the reported leaf must
  // shrink as epsilon grows.
  TbfFramework strict = BuildFramework(0.05, 3);
  TbfFramework loose = BuildFramework(2.0, 3);
  Rng rng1(9), rng2(9);
  RunningStat d_strict, d_loose;
  const Point location{57, 133};
  for (int i = 0; i < 3000; ++i) {
    d_strict.Add(strict.tree().TreeDistance(
        strict.TrueLeaf(location), strict.ObfuscateLocation(location, &rng1)));
    d_loose.Add(loose.tree().TreeDistance(
        loose.TrueLeaf(location), loose.ObfuscateLocation(location, &rng2)));
  }
  EXPECT_GT(d_strict.mean(), d_loose.mean());
}

TEST(TbfFrameworkTest, SharedTreeAcrossCopies) {
  // The framework is cheaply copyable (shared immutable state) so server
  // and simulated clients can hold the same published structure.
  TbfFramework f = BuildFramework();
  TbfFramework copy = f;
  EXPECT_EQ(&f.tree(), &copy.tree());
  EXPECT_EQ(&f.mechanism(), &copy.mechanism());
}

}  // namespace
}  // namespace tbf
