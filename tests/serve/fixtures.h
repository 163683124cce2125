// Inputs shared by the serving and chaos suites, defined once so every
// suite that names them serves the same tree and the same framework.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "core/tbf.h"
#include "geo/grid.h"

namespace tbf {

// TBF over an 8 x 8 grid of a 200 x 200 box: the replay suites' framework.
inline TbfFramework BuildFramework(double epsilon = 0.6, uint64_t seed = 7) {
  Rng rng(seed);
  auto grid = UniformGridPoints(BBox::Square(200), 8);
  EXPECT_TRUE(grid.ok());
  TbfOptions options;
  options.epsilon = epsilon;
  auto framework =
      TbfFramework::Build(std::move(*grid), EuclideanMetric(), &rng, options);
  EXPECT_TRUE(framework.ok());
  return std::move(framework).MoveValueUnsafe();
}

// The published tree of a 6 x 6 grid of a 100 x 100 box: the server
// suites' tree.
inline std::shared_ptr<const CompleteHst> BuildTree(uint64_t seed = 3) {
  EuclideanMetric metric;
  Rng rng(seed);
  auto grid = UniformGridPoints(BBox::Square(100), 6);
  auto tree = CompleteHst::BuildFromPoints(*grid, metric, &rng);
  EXPECT_TRUE(tree.ok());
  return std::make_shared<const CompleteHst>(std::move(tree).MoveValueUnsafe());
}

}  // namespace tbf
