#include "matching/hst_greedy.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/grid.h"
#include "hst/pack_paths.h"

namespace tbf {
namespace {

// Code of the binary-tree leaf spelled by `digits` (depth = digit count).
LeafCode P(std::initializer_list<int> digits) {
  LeafPath p;
  for (int d : digits) p.push_back(static_cast<char16_t>(d));
  return LeafCodec(static_cast<int>(p.size()), 2).Pack(p);
}

TEST(HstGreedyTest, AssignsNearestOnTree) {
  // depth 3, arity 2.
  std::vector<LeafCode> workers = {P({0, 0, 0}), P({1, 1, 1}), P({1, 1, 0})};
  HstGreedyMatcher m(workers, 3, 2);
  // Task at (1,1,1): worker 1 co-located (level 0).
  EXPECT_EQ(m.Assign(P({1, 1, 1})), 1);
  // Again: worker 2 is the sibling (level 1) vs worker 0 (level 3).
  EXPECT_EQ(m.Assign(P({1, 1, 1})), 2);
  EXPECT_EQ(m.Assign(P({1, 1, 1})), 0);
  EXPECT_EQ(m.Assign(P({1, 1, 1})), -1);
}

TEST(HstGreedyTest, EmptyWorkers) {
  HstGreedyMatcher m(std::vector<LeafCode>{}, 3, 2);
  EXPECT_EQ(m.Assign(P({0, 0, 0})), -1);
}

TEST(HstGreedyTest, CanonicalTieBreak) {
  // Two workers both at LCA level 2 from the task; smaller leaf path wins.
  std::vector<LeafCode> workers = {P({0, 1, 0}), P({0, 0, 1})};
  HstGreedyMatcher scan(workers, 3, 2, HstEngine::kLinearScan);
  EXPECT_EQ(scan.Assign(P({0, 1, 1})), 0);

  HstGreedyMatcher index(workers, 3, 2, HstEngine::kIndex);
  EXPECT_EQ(index.Assign(P({0, 1, 1})), 0);
}

TEST(HstGreedyTest, SameLeafTieBreakSmallestId) {
  std::vector<LeafCode> workers = {P({1, 0}), P({1, 0}), P({1, 0})};
  HstGreedyMatcher m(workers, 2, 2, HstEngine::kIndex);
  EXPECT_EQ(m.Assign(P({1, 0})), 0);
  EXPECT_EQ(m.Assign(P({1, 0})), 1);
  EXPECT_EQ(m.Assign(P({1, 0})), 2);
}

class HstEngineEquivalenceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(HstEngineEquivalenceTest, ScanAndIndexProduceIdenticalMatchings) {
  const int depth = 6;
  const int arity = 3;
  Rng rng(GetParam() * 31 + 7);
  auto random_leaf = [&]() {
    LeafPath p;
    for (int i = 0; i < depth; ++i) {
      p.push_back(static_cast<char16_t>(rng.UniformInt(0, arity - 1)));
    }
    return p;
  };
  std::vector<LeafPath> workers;
  for (int i = 0; i < 150; ++i) workers.push_back(random_leaf());
  const std::vector<LeafCode> codes = PackPaths(depth, arity, workers);
  HstGreedyMatcher scan(codes, depth, arity, HstEngine::kLinearScan);
  HstGreedyMatcher index(codes, depth, arity, HstEngine::kIndex);
  const LeafCodec codec(depth, arity);
  for (int t = 0; t < 150; ++t) {
    const LeafCode task = codec.Pack(random_leaf());
    int a = scan.Assign(task);
    int b = index.Assign(task);
    ASSERT_EQ(a, b) << "task " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HstEngineEquivalenceTest,
                         testing::Range<uint64_t>(0, 8));

TEST(HstGreedyTest, MatchesPaperExampleFourSemantics) {
  // Alg. 4: the chosen worker minimizes tree distance among the unmatched.
  // Build leaves from a real tree to exercise the full stack.
  EuclideanMetric metric;
  Rng rng(3);
  auto grid = UniformGridPoints(BBox::Square(100), 4);
  ASSERT_TRUE(grid.ok());
  auto tree = CompleteHst::BuildFromPoints(*grid, metric, &rng);
  ASSERT_TRUE(tree.ok());

  std::vector<LeafCode> workers;
  for (int p = 0; p < 8; ++p) workers.push_back(tree->leaf_code_of_point(p));
  HstGreedyMatcher m(workers, tree->depth(), tree->arity());

  const LeafCode task = tree->leaf_code_of_point(9);
  int chosen = m.Assign(task);
  ASSERT_GE(chosen, 0);
  for (int w = 0; w < 8; ++w) {
    EXPECT_LE(tree->TreeDistance(task, workers[static_cast<size_t>(chosen)]),
              tree->TreeDistance(task, workers[static_cast<size_t>(w)]) + 1e-12);
  }
}

TEST(HstGreedyDeathTest, DepthMismatchAborts) {
  // A depth-3 leaf has a digit below the last digit of a depth-2 code.
  std::vector<LeafCode> workers = {P({0, 0, 1})};
  EXPECT_DEATH(HstGreedyMatcher(workers, 2, 2), "bits outside the shape");
}

}  // namespace
}  // namespace tbf
