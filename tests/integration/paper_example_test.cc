// End-to-end reproduction of the paper's running example (Examples 1-4 and
// Table I): the four-point metric, the complete binary HST of depth 4, the
// mechanism probabilities at eps = 0.1, and Alg. 4 greedy semantics.

#include <gtest/gtest.h>

#include <cmath>

#include "core/hst_mechanism.h"
#include "core/tbf.h"
#include "hst/complete_hst.h"
#include "matching/hst_greedy.h"

namespace tbf {
namespace {

std::vector<Point> ExamplePoints() {
  return {{1, 1}, {2, 3}, {5, 3}, {4, 4}};
}

class PaperExampleTest : public testing::Test {
 protected:
  void SetUp() override {
    EuclideanMetric metric;
    Rng rng(3);
    HstTreeOptions options;
    options.beta = 0.5;                  // Example 1 uses beta = 1/2
    options.normalize = false;           // raw units, as in the paper
    options.permutation = {0, 1, 2, 3};  // pi = <o1, o2, o3, o4>
    auto tree = CompleteHst::BuildFromPoints(ExamplePoints(), metric, &rng, options);
    ASSERT_TRUE(tree.ok()) << tree.status();
    tree_ = std::make_unique<CompleteHst>(std::move(tree).MoveValueUnsafe());
    // Example 2 applies eps = 0.1 to tree-unit distances.
    auto mech = HstMechanism::Build(*tree_, 0.1 * tree_->scale());
    ASSERT_TRUE(mech.ok());
    mech_ = std::make_unique<HstMechanism>(std::move(mech).MoveValueUnsafe());
  }

  std::unique_ptr<CompleteHst> tree_;
  std::unique_ptr<HstMechanism> mech_;
};

TEST_F(PaperExampleTest, ExampleOneTreeShape) {
  // D = ceil(log2(2 d(o1,o3))) = 4 and the completed tree is binary with
  // 2^4 = 16 leaves — the tree of the paper's Fig. 3.
  EXPECT_EQ(tree_->depth(), 4);
  EXPECT_EQ(tree_->arity(), 2);
  EXPECT_DOUBLE_EQ(tree_->scale(), 1.0);
  EXPECT_DOUBLE_EQ(tree_->num_leaves(), 16.0);
  // Fig. 2/3: {o1,o2} vs {o3,o4} split at the root; o1/o2 separate one
  // level down (LCA at level 3); o3/o4 stay together until level 2.
  EXPECT_EQ(LcaLevel(tree_->leaf_of_point(0), tree_->leaf_of_point(2)), 4);
  EXPECT_EQ(LcaLevel(tree_->leaf_of_point(0), tree_->leaf_of_point(1)), 3);
  EXPECT_EQ(LcaLevel(tree_->leaf_of_point(2), tree_->leaf_of_point(3)), 2);
}

TEST_F(PaperExampleTest, TableOneFull) {
  struct RowSpec {
    int level;
    double weight;
    double probability;
  };
  // Level, wt_i, per-leaf probability — exactly the paper's Table I.
  const RowSpec rows[] = {
      {0, 1.0, 0.394}, {1, 0.670, 0.264}, {2, 0.301, 0.119},
      {3, 0.061, 0.024}, {4, 0.002, 0.001},
  };
  for (const RowSpec& row : rows) {
    EXPECT_NEAR(std::exp(mech_->LogWeight(row.level)), row.weight, 0.001)
        << "level " << row.level;
    double leaf_prob =
        std::exp(mech_->LogWeight(row.level) - mech_->LogTotalWeight());
    EXPECT_NEAR(leaf_prob, row.probability, 0.001) << "level " << row.level;
  }
  // Sibling set sizes from the text: 1, 1, 2, 4, 8 leaves at levels 0-4.
  EXPECT_DOUBLE_EQ(tree_->SiblingSetSize(1), 1);
  EXPECT_DOUBLE_EQ(tree_->SiblingSetSize(2), 2);
  EXPECT_DOUBLE_EQ(tree_->SiblingSetSize(3), 4);
  EXPECT_DOUBLE_EQ(tree_->SiblingSetSize(4), 8);
}

TEST_F(PaperExampleTest, ExampleThreeWalkProbabilities) {
  // pu_0 = 0.606 and pu_1 = 0.564 as computed in Example 3.
  EXPECT_NEAR(mech_->UpwardProbability(0), 0.606, 0.001);
  EXPECT_NEAR(mech_->UpwardProbability(1), 0.564, 0.001);
  // The full walk probability of Example 3: up, up, turn at level 2, then
  // two fixed downward choices with probability 1 and 1/2 = 0.119; that is
  // exactly the per-leaf level-2 probability of Table I.
  double path_prob = mech_->UpwardProbability(0) * mech_->UpwardProbability(1) *
                     (1.0 - mech_->UpwardProbability(2)) * 1.0 * 0.5;
  EXPECT_NEAR(path_prob, 0.119, 0.001);
}

TEST_F(PaperExampleTest, ExampleFourGreedyConsumesNearestWorkers) {
  // Alg. 4 over obfuscated nodes: each task takes the tree-nearest
  // unmatched worker and the worker set shrinks by one per task.
  std::vector<LeafCode> workers = {tree_->leaf_code_of_point(0),
                                   tree_->leaf_code_of_point(1),
                                   tree_->leaf_code_of_point(3)};
  HstGreedyMatcher matcher(workers, tree_->depth(), tree_->arity());
  std::vector<int> order;
  for (int pid : {1, 0, 2}) {
    int w = matcher.Assign(tree_->leaf_code_of_point(pid));
    ASSERT_GE(w, 0);
    order.push_back(w);
  }
  // Task at o2's leaf -> worker at o2 (distance 0); task at o1 -> worker at
  // o1; task at o3 -> the only remaining worker (o4's leaf).
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(matcher.available(), 0u);
}

TEST_F(PaperExampleTest, GeoIGuaranteeHoldsOnExampleTree) {
  // Theorem 1 at the paper's eps, over every pair of real leaves.
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      const LeafPath xa = tree_->leaf_of_point(a);
      const LeafPath xb = tree_->leaf_of_point(b);
      // Tree distance in tree units (Example 2 convention).
      double d_tree = TreeDistanceForLevel(LcaLevel(xa, xb));
      auto leaves = mech_->EnumerateLeaves();
      ASSERT_TRUE(leaves.ok());
      for (const LeafPath& z : *leaves) {
        double ratio = mech_->LogProbability(xa, z) - mech_->LogProbability(xb, z);
        EXPECT_LE(ratio, 0.1 * d_tree + 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace tbf
