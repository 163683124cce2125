// The paper's guarantees checked on the path the system serves: reports
// drawn by TbfFramework::ObfuscateCodes (one ForkAt stream per report, the
// batched client step of the replay loop) for every SamplerKind must follow
// the mechanism's exact LCA-level marginal, and the published tree's
// mechanism must be eps-Geo-I (Def. 7, Thm 1) at the framework's epsilon.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/stat_policy.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "privacy/geo_check.h"

namespace tbf {
namespace {

// Per metric unit. On this 100 x 100 grid of 4 x 4 points (a depth-5,
// arity-6 tree) it spreads reports over every LCA level: each expects over
// 100 of 20k reports, so the chi-square below pools no cell.
constexpr double kEpsilon = 0.005;

TbfFramework BuildFramework() {
  Rng rng(3);
  auto grid = UniformGridPoints(BBox::Square(100), 4);
  EXPECT_TRUE(grid.ok()) << grid.status();
  TbfOptions options;
  options.epsilon = kEpsilon;
  auto framework = TbfFramework::Build(std::move(grid).MoveValueUnsafe(),
                                       EuclideanMetric(), &rng, options);
  EXPECT_TRUE(framework.ok()) << framework.status();
  return std::move(framework).MoveValueUnsafe();
}

// Chi-square of the LCA levels of `n` reports of one location, drawn with
// `sampler`, against HstMechanism::LevelProbability; "" on pass, a
// diagnostic on rejection.
std::string LevelMarginalTrial(const TbfFramework& framework,
                               SamplerKind sampler, int n, uint64_t seed) {
  const Point location{40.0, 65.0};
  const LeafCode truth = framework.tree().leaf_code_of_point(
      framework.tree().MapToNearestPoint(location));
  ThreadPool pool(2);
  const std::vector<LeafCode> reports = framework.ObfuscateCodes(
      std::vector<Point>(static_cast<size_t>(n), location), Rng(seed), &pool,
      nullptr, 0, sampler);

  const HstMechanism& mechanism = framework.mechanism();
  std::vector<double> expected;
  for (int level = 0; level <= mechanism.depth(); ++level) {
    expected.push_back(mechanism.LevelProbability(level));
  }
  std::vector<size_t> observed(expected.size(), 0);
  for (LeafCode report : reports) {
    ++observed[static_cast<size_t>(framework.codec()->LcaLevel(truth, report))];
  }
  // ChiSquareStatistic pools the cells expected below 5 into one.
  int cells = 0;
  bool pooled = false;
  for (double p : expected) {
    if (p * n >= 5.0) {
      ++cells;
    } else {
      pooled = true;
    }
  }
  const double df = std::max(1, cells + (pooled ? 1 : 0) - 1);
  const double chi2 = ChiSquareStatistic(observed, expected);
  const double threshold = ChiSquareQuantile(df);
  if (chi2 < threshold) return "";
  std::ostringstream failure;
  failure << "chi2=" << chi2 << " > " << threshold << " at df=" << df;
  return failure.str();
}

class ShippedPathTest : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(ShippedPathTest, ObfuscateCodesFollowsLevelMarginal) {
  const TbfFramework framework = BuildFramework();
  ASSERT_NE(framework.codec(), nullptr);
  ASSERT_GE(framework.mechanism().depth(), 2);
  tbf::testing::ExpectStatistical(
      "ObfuscateCodes LCA levels vs LevelProbability",
      /*primary_seed=*/20261017, /*retry_seed=*/7331, [&](uint64_t seed) {
        return LevelMarginalTrial(framework, GetParam(), 20000, seed);
      });
}

INSTANTIATE_TEST_SUITE_P(AllSamplers, ShippedPathTest,
                         ::testing::Values(SamplerKind::kWalk,
                                           SamplerKind::kOblivious));

TEST(ShippedMechanismTest, PublishedMechanismIsGeoIndistinguishable) {
  // Every sampler draws mechanism().LogProbability's distribution (above),
  // so one audit covers them all. Inputs are the leaves a client can map
  // to (the published points'); outputs are every leaf of the complete
  // tree the mechanism may report.
  const TbfFramework framework = BuildFramework();
  const CompleteHst& tree = framework.tree();
  const HstMechanism& mechanism = framework.mechanism();
  auto outputs = mechanism.EnumerateLeaves(1 << 14);
  ASSERT_TRUE(outputs.ok()) << outputs.status();
  auto log_prob = [&](int x, int z) {
    return mechanism.LogProbability(tree.leaf_of_point(x),
                                    (*outputs)[static_cast<size_t>(z)]);
  };
  auto distance = [&](int a, int b) {
    return tree.TreeDistance(tree.leaf_code_of_point(a),
                             tree.leaf_code_of_point(b));
  };
  const GeoCheckReport report = CheckGeoIndistinguishability(
      tree.num_points(), static_cast<int>(outputs->size()),
      log_prob, distance, framework.epsilon());
  EXPECT_TRUE(report.satisfied) << report.ToString();
  EXPECT_LE(report.tightest_epsilon, framework.epsilon() + 1e-9)
      << report.ToString();
}

}  // namespace
}  // namespace tbf
