// Tests of the paper's mechanism: weight formulas (Eq. 3-4, Table I),
// exact distribution (Alg. 2), random-walk equivalence (Alg. 3 / Thm. 2)
// and Geo-Indistinguishability (Thm. 1) — verified exactly, in log space.

#include "core/hst_mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "common/math.h"
#include "common/stats.h"
#include "geo/grid.h"
#include "privacy/geo_check.h"

namespace tbf {
namespace {

std::vector<Point> ExamplePoints() {
  return {{1, 1}, {2, 3}, {5, 3}, {4, 4}};
}

// Paper Example 1-2 tree, exactly: D = 4, c = 2 (beta = 1/2,
// pi = <o1, o2, o3, o4>, raw units so scale = 1).
CompleteHst BuildExampleTree(uint64_t seed = 3) {
  EuclideanMetric metric;
  Rng rng(seed);
  HstTreeOptions options;
  options.beta = 0.5;
  options.normalize = false;
  options.permutation = {0, 1, 2, 3};
  auto tree = CompleteHst::BuildFromPoints(ExamplePoints(), metric, &rng, options);
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).MoveValueUnsafe();
}

// Mechanism with eps_tree = eps_paper exactly, as in Example 2 where the
// budget applies to tree-unit distances.
HstMechanism BuildExampleMechanism(const CompleteHst& tree, double eps_paper) {
  auto m = HstMechanism::Build(tree, eps_paper * tree.scale());
  EXPECT_TRUE(m.ok()) << m.status();
  return std::move(m).MoveValueUnsafe();
}

TEST(HstMechanismTest, RejectsNonPositiveEpsilon) {
  CompleteHst tree = BuildExampleTree();
  EXPECT_FALSE(HstMechanism::Build(tree, 0.0).ok());
  EXPECT_FALSE(HstMechanism::Build(tree, -0.5).ok());
  // A NaN or infinite epsilon would make every report the true leaf.
  EXPECT_FALSE(HstMechanism::Build(tree, std::nan("")).ok());
  EXPECT_FALSE(
      HstMechanism::Build(tree, std::numeric_limits<double>::infinity()).ok());
}

TEST(HstMechanismTest, TableOneWeights) {
  // Paper Table I (eps = 0.1, D = 4, c = 2): wt_i = e^{eps (4 - 2^{i+2})}.
  CompleteHst tree = BuildExampleTree();
  HstMechanism m = BuildExampleMechanism(tree, 0.1);
  ASSERT_EQ(m.depth(), 4);
  ASSERT_EQ(m.arity(), 2);
  EXPECT_NEAR(std::exp(m.LogWeight(0)), 1.0, 1e-12);
  EXPECT_NEAR(std::exp(m.LogWeight(1)), 0.670, 0.001);
  EXPECT_NEAR(std::exp(m.LogWeight(2)), 0.301, 0.001);
  EXPECT_NEAR(std::exp(m.LogWeight(3)), 0.061, 0.001);
  EXPECT_NEAR(std::exp(m.LogWeight(4)), 0.002, 0.001);
}

TEST(HstMechanismTest, TableOneProbabilities) {
  // Paper Table I: probability that the output leaf sits in L_i(x).
  CompleteHst tree = BuildExampleTree();
  HstMechanism m = BuildExampleMechanism(tree, 0.1);
  const LeafPath x = tree.leaf_of_point(0);
  // Per-leaf probabilities (column "Probability").
  auto leaf_prob_at_level = [&](int level) {
    // Any z with lvl(x, z) = level has probability wt_level / WT.
    return std::exp(m.LogWeight(level) - m.LogTotalWeight());
  };
  EXPECT_NEAR(leaf_prob_at_level(0), 0.394, 0.001);
  EXPECT_NEAR(leaf_prob_at_level(1), 0.264, 0.001);
  EXPECT_NEAR(leaf_prob_at_level(2), 0.119, 0.001);
  EXPECT_NEAR(leaf_prob_at_level(3), 0.024, 0.001);
  EXPECT_NEAR(leaf_prob_at_level(4), 0.001, 0.001);
  // Self-output probability equals the level-0 entry.
  EXPECT_NEAR(m.Probability(x, x), 0.394, 0.001);
}

TEST(HstMechanismTest, ExampleThreeUpwardProbabilities) {
  // Paper Example 3: pu_0 = 0.606, pu_1 = 0.564 (eps = 0.1).
  CompleteHst tree = BuildExampleTree();
  HstMechanism m = BuildExampleMechanism(tree, 0.1);
  EXPECT_NEAR(m.UpwardProbability(0), 0.606, 0.001);
  EXPECT_NEAR(m.UpwardProbability(1), 0.564, 0.001);
  // At the root the walk must turn down.
  EXPECT_DOUBLE_EQ(m.UpwardProbability(4), 0.0);
}

TEST(HstMechanismTest, DistributionSumsToOne) {
  CompleteHst tree = BuildExampleTree();
  for (double eps : {0.05, 0.1, 0.5, 1.0, 3.0}) {
    HstMechanism m = BuildExampleMechanism(tree, eps);
    auto leaves = m.EnumerateLeaves();
    ASSERT_TRUE(leaves.ok());
    const LeafPath x = tree.leaf_of_point(1);
    double total = 0.0;
    for (const LeafPath& z : *leaves) total += m.Probability(x, z);
    EXPECT_NEAR(total, 1.0, 1e-10) << "eps=" << eps;
  }
}

TEST(HstMechanismTest, LevelProbabilitiesSumToOne) {
  CompleteHst tree = BuildExampleTree();
  HstMechanism m = BuildExampleMechanism(tree, 0.25);
  double total = 0.0;
  for (int level = 0; level <= m.depth(); ++level) {
    total += m.LevelProbability(level);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(HstMechanismTest, LevelProbabilityAggregatesLeafProbabilities) {
  CompleteHst tree = BuildExampleTree();
  HstMechanism m = BuildExampleMechanism(tree, 0.1);
  auto leaves = m.EnumerateLeaves();
  ASSERT_TRUE(leaves.ok());
  const LeafPath x = tree.leaf_of_point(2);
  std::map<int, double> by_level;
  for (const LeafPath& z : *leaves) {
    by_level[LcaLevel(x, z)] += m.Probability(x, z);
  }
  for (int level = 0; level <= m.depth(); ++level) {
    EXPECT_NEAR(by_level[level], m.LevelProbability(level), 1e-12)
        << "level " << level;
  }
}

TEST(HstMechanismTest, WalkProbabilityEqualsClosedForm) {
  // Theorem 2: the random-walk path probability equals wt_l / WT for every
  // output leaf — checked analytically over all (x, z) pairs.
  CompleteHst tree = BuildExampleTree();
  for (double eps : {0.1, 0.7, 2.0}) {
    HstMechanism m = BuildExampleMechanism(tree, eps);
    auto leaves = m.EnumerateLeaves();
    ASSERT_TRUE(leaves.ok());
    for (int p = 0; p < tree.num_points(); ++p) {
      const LeafPath x = tree.leaf_of_point(p);
      for (const LeafPath& z : *leaves) {
        EXPECT_NEAR(m.WalkProbability(x, z), m.Probability(x, z), 1e-12)
            << "eps=" << eps << " x=" << LeafPathToString(x)
            << " z=" << LeafPathToString(z);
      }
    }
  }
}

TEST(HstMechanismTest, RandomWalkSamplesMatchExactDistribution) {
  // Chi-square of Alg. 3 samples against the exact Alg. 2 distribution.
  CompleteHst tree = BuildExampleTree();
  HstMechanism m = BuildExampleMechanism(tree, 0.1);
  auto leaves_result = m.EnumerateLeaves();
  ASSERT_TRUE(leaves_result.ok());
  const std::vector<LeafPath>& leaves = *leaves_result;
  const LeafPath x = tree.leaf_of_point(0);

  std::map<LeafPath, size_t> index_of;
  for (size_t i = 0; i < leaves.size(); ++i) index_of[leaves[i]] = i;

  Rng rng(12345);
  const int n = 200000;
  std::vector<size_t> observed(leaves.size(), 0);
  for (int i = 0; i < n; ++i) {
    ++observed[index_of.at(m.Obfuscate(x, &rng))];
  }
  std::vector<double> expected;
  expected.reserve(leaves.size());
  for (const LeafPath& z : leaves) expected.push_back(m.Probability(x, z));

  double chi2 = ChiSquareStatistic(observed, expected);
  // 15 df; 0.999 quantile ~ 37.7. Allow generous headroom against flakes.
  EXPECT_LT(chi2, 60.0);
}

TEST(HstMechanismTest, NaiveSamplerMatchesExactDistribution) {
  CompleteHst tree = BuildExampleTree();
  HstMechanism m = BuildExampleMechanism(tree, 0.1);
  auto leaves_result = m.EnumerateLeaves();
  ASSERT_TRUE(leaves_result.ok());
  const std::vector<LeafPath>& leaves = *leaves_result;
  const LeafPath x = tree.leaf_of_point(3);

  std::map<LeafPath, size_t> index_of;
  for (size_t i = 0; i < leaves.size(); ++i) index_of[leaves[i]] = i;

  Rng rng(999);
  const int n = 100000;
  std::vector<size_t> observed(leaves.size(), 0);
  for (int i = 0; i < n; ++i) {
    auto z = m.SampleNaive(x, &rng);
    ASSERT_TRUE(z.ok());
    ++observed[index_of.at(*z)];
  }
  std::vector<double> expected;
  for (const LeafPath& z : leaves) expected.push_back(m.Probability(x, z));
  EXPECT_LT(ChiSquareStatistic(observed, expected), 60.0);
}

TEST(HstMechanismTest, GeoIndistinguishabilityExact) {
  // Theorem 1, checked exactly over all leaf triples of the complete tree,
  // with the budget expressed in metric units (as the mechanism guarantees).
  CompleteHst tree = BuildExampleTree();
  for (double eps : {0.1, 0.6, 1.5}) {
    auto m_result = HstMechanism::Build(tree, eps);
    ASSERT_TRUE(m_result.ok());
    const HstMechanism& m = *m_result;
    auto leaves_result = m.EnumerateLeaves();
    ASSERT_TRUE(leaves_result.ok());
    const std::vector<LeafPath>& leaves = *leaves_result;

    auto log_prob = [&](int x, int z) {
      return m.LogProbability(leaves[static_cast<size_t>(x)],
                              leaves[static_cast<size_t>(z)]);
    };
    auto distance = [&](int a, int b) {
      return tree.TreeDistanceForLcaLevel(LcaLevel(
          leaves[static_cast<size_t>(a)], leaves[static_cast<size_t>(b)]));
    };
    GeoCheckReport report = CheckGeoIndistinguishability(
        static_cast<int>(leaves.size()), static_cast<int>(leaves.size()),
        log_prob, distance, eps);
    EXPECT_TRUE(report.satisfied) << "eps=" << eps << ": " << report.ToString();
    // The bound is achieved exactly between a leaf and its sibling set.
    EXPECT_NEAR(report.tightest_epsilon, eps, 1e-9) << "eps=" << eps;
  }
}

TEST(HstMechanismTest, ObfuscateOutputsValidLeaves) {
  CompleteHst tree = BuildExampleTree();
  HstMechanism m = BuildExampleMechanism(tree, 0.3);
  Rng rng(4);
  const LeafPath x = tree.leaf_of_point(0);
  for (int i = 0; i < 1000; ++i) {
    LeafPath z = m.Obfuscate(x, &rng);
    ASSERT_EQ(z.size(), static_cast<size_t>(tree.depth()));
    for (char16_t digit : z) {
      EXPECT_LT(static_cast<int>(digit), tree.arity());
    }
  }
}

TEST(HstMechanismTest, LargeEpsilonConcentratesOnTruth) {
  CompleteHst tree = BuildExampleTree();
  HstMechanism m = BuildExampleMechanism(tree, 50.0);
  Rng rng(5);
  const LeafPath x = tree.leaf_of_point(1);
  int exact = 0;
  for (int i = 0; i < 1000; ++i) {
    if (m.Obfuscate(x, &rng) == x) ++exact;
  }
  EXPECT_GT(exact, 990);
}

TEST(HstMechanismTest, SmallEpsilonSpreadsMass) {
  CompleteHst tree = BuildExampleTree();
  HstMechanism m = BuildExampleMechanism(tree, 1e-6);
  // With eps -> 0 all leaves become equally likely: P(truth) -> 1 / c^D.
  const LeafPath x = tree.leaf_of_point(1);
  EXPECT_NEAR(m.Probability(x, x), 1.0 / 16.0, 1e-4);
}

TEST(HstMechanismTest, DeepTreeNoUnderflowInLogSpace) {
  // A 2-point metric with huge aspect ratio gives a deep tree; raw weights
  // underflow but log-space quantities stay finite and normalized.
  EuclideanMetric metric;
  Rng rng(6);
  std::vector<Point> pts = {{0, 0}, {0.001, 0}, {60000, 0}};
  auto tree = CompleteHst::BuildFromPoints(pts, metric, &rng);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_GT(tree->depth(), 20);
  auto m = HstMechanism::Build(*tree, 1.0);
  ASSERT_TRUE(m.ok());
  double total = 0.0;
  for (int level = 0; level <= m->depth(); ++level) {
    double p = m->LevelProbability(level);
    EXPECT_GE(p, 0.0);
    EXPECT_TRUE(std::isfinite(p));
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Sampling still works.
  Rng sample_rng(7);
  LeafPath z = m->Obfuscate(tree->leaf_of_point(0), &sample_rng);
  EXPECT_EQ(z.size(), static_cast<size_t>(tree->depth()));
}

TEST(HstMechanismTest, EnumerateLeavesRejectsHugeTrees) {
  EuclideanMetric metric;
  Rng rng(8);
  std::vector<Point> pts = {{0, 0}, {0.001, 0}, {60000, 0}};
  auto tree = CompleteHst::BuildFromPoints(pts, metric, &rng);
  ASSERT_TRUE(tree.ok());
  auto m = HstMechanism::Build(*tree, 1.0);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->EnumerateLeaves(1 << 10).ok());
  EXPECT_FALSE(m->SampleNaive(tree->leaf_of_point(0), &rng, 1 << 10).ok());
}

TEST(HstMechanismTest, EpsilonConversionUsesTreeScale) {
  CompleteHst tree = BuildExampleTree();
  auto m = HstMechanism::Build(tree, 0.5);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->epsilon(), 0.5);
  EXPECT_DOUBLE_EQ(m->epsilon_tree(), 0.5 / tree.scale());
}

// Property sweep: Theorem 2 (walk == closed form) and normalization on
// wider/deeper synthetic trees across epsilon, walking from more than one
// source leaf. `source_point` sits between the int and the double so the
// struct has no padding: gtest prints the parameter's raw bytes into the test
// name, and padding bytes would make those names vary from build to build.
struct MechanismSweepParam {
  int grid_side;
  int source_point;
  double epsilon;
};
static_assert(sizeof(MechanismSweepParam) == 16, "no padding bytes");

class MechanismSweepTest : public testing::TestWithParam<MechanismSweepParam> {};

TEST_P(MechanismSweepTest, WalkMatchesClosedFormOnGridTrees) {
  EuclideanMetric metric;
  Rng rng(42);
  auto grid = UniformGridPoints(BBox::Square(60), GetParam().grid_side);
  ASSERT_TRUE(grid.ok());
  auto tree = CompleteHst::BuildFromPoints(*grid, metric, &rng);
  ASSERT_TRUE(tree.ok());
  auto m = HstMechanism::Build(*tree, GetParam().epsilon);
  ASSERT_TRUE(m.ok());

  // Level probabilities normalize.
  double total = 0.0;
  for (int level = 0; level <= m->depth(); ++level) {
    total += m->LevelProbability(level);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Walk == closed form on sampled outputs.
  Rng sample_rng(GetParam().grid_side * 1000 +
                 static_cast<uint64_t>(GetParam().epsilon * 10));
  const LeafPath x = tree->leaf_of_point(GetParam().source_point);
  for (int i = 0; i < 200; ++i) {
    LeafPath z = m->Obfuscate(x, &sample_rng);
    EXPECT_NEAR(m->WalkProbability(x, z), m->Probability(x, z),
                1e-12 + 1e-9 * m->Probability(x, z));
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndEpsilons, MechanismSweepTest,
    testing::Values(MechanismSweepParam{3, 0, 0.2},
                    MechanismSweepParam{3, 3, 1.0},
                    MechanismSweepParam{5, 0, 0.2},
                    MechanismSweepParam{5, 0, 0.6},
                    MechanismSweepParam{8, 0, 0.4},
                    MechanismSweepParam{8, 3, 1.0}));

}  // namespace
}  // namespace tbf
