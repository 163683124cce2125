#include "matching/prob_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

namespace tbf {
namespace {

std::shared_ptr<const ReachabilityTable> MakeTable(double epsilon = 0.5,
                                                   uint64_t seed = 1) {
  Rng rng(seed);
  return std::make_shared<const ReachabilityTable>(
      epsilon, /*max_observed_distance=*/100.0, /*min_radius=*/10.0,
      /*max_radius=*/20.0, &rng);
}

TEST(ReachabilityTableTest, ProbabilityDecreasesWithDistance) {
  auto table = MakeTable();
  double close = table->Probability(0.0, 15.0);
  double mid = table->Probability(20.0, 15.0);
  double far = table->Probability(90.0, 15.0);
  EXPECT_GT(close, mid);
  EXPECT_GT(mid, far);
}

TEST(ReachabilityTableTest, ProbabilityIncreasesWithRadius) {
  auto table = MakeTable();
  EXPECT_GE(table->Probability(15.0, 20.0), table->Probability(15.0, 10.0));
}

TEST(ReachabilityTableTest, ProbabilityIsInUnitInterval) {
  auto table = MakeTable();
  for (double d = 0; d <= 120; d += 7) {
    for (double r = 8; r <= 25; r += 3) {
      double p = table->Probability(d, r);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(ReachabilityTableTest, SmallNoiseNearStepFunction) {
  // At huge epsilon the noise vanishes: P ~ 1 inside the radius, ~0 far
  // outside.
  Rng rng(2);
  ReachabilityTable table(50.0, 100.0, 10.0, 20.0, &rng);
  EXPECT_GT(table.Probability(5.0, 15.0), 0.95);
  EXPECT_LT(table.Probability(60.0, 15.0), 0.05);
}

TEST(ReachabilityTableTest, DeterministicForSeed) {
  auto a = MakeTable(0.5, 7);
  auto b = MakeTable(0.5, 7);
  for (double d = 0; d < 100; d += 13) {
    EXPECT_DOUBLE_EQ(a->Probability(d, 12.0), b->Probability(d, 12.0));
  }
}

TEST(ProbMatcherTest, RanksByProbability) {
  auto table = MakeTable();
  // Worker 1 much closer to the task: higher estimated reachability.
  ProbMatcher m({{50, 50}, {10, 10}}, {15.0, 15.0}, table);
  std::vector<int> candidates = m.Candidates({12, 12}, 2);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0], 1);
}

TEST(ProbMatcherTest, ConsumeRemovesWorker) {
  auto table = MakeTable();
  ProbMatcher m({{10, 10}, {11, 11}}, {15.0, 15.0}, table);
  EXPECT_EQ(m.available(), 2u);
  m.Consume(1);
  EXPECT_EQ(m.available(), 1u);
  std::vector<int> candidates = m.Candidates({10, 10}, 5);
  EXPECT_EQ(candidates, std::vector<int>{0});
}

TEST(ProbMatcherTest, LimitRespected) {
  auto table = MakeTable();
  std::vector<Point> workers;
  std::vector<double> radii;
  for (int i = 0; i < 10; ++i) {
    workers.push_back({static_cast<double>(i), 0});
    radii.push_back(15.0);
  }
  ProbMatcher m(workers, radii, table);
  EXPECT_LE(m.Candidates({5, 0}, 3).size(), 3u);
}

TEST(ProbMatcherTest, HopelessWorkersOmitted) {
  Rng rng(3);
  // Tight noise, worker far beyond any plausible reach: probability 0.
  auto table = std::make_shared<const ReachabilityTable>(10.0, 200.0, 10.0,
                                                         20.0, &rng);
  ProbMatcher m({{150, 150}}, {10.0}, table);
  EXPECT_TRUE(m.Candidates({0, 0}, 5).empty());
}

TEST(ProbMatcherDeathTest, MismatchedRadiiAbort) {
  auto table = MakeTable();
  EXPECT_DEATH(ProbMatcher({{0, 0}}, {1.0, 2.0}, table), "radii");
}

// Code of the binary-tree leaf spelled by `digits` (depth = digit count).
LeafCode P(std::initializer_list<int> digits) {
  LeafPath p;
  for (int d : digits) p.push_back(static_cast<char16_t>(d));
  return LeafCodec(static_cast<int>(p.size()), 2).Pack(p);
}

TEST(HstCaseStudyMatcherTest, RanksByTreeDistance) {
  std::vector<LeafCode> workers = {P({0, 0, 0}), P({1, 1, 0}), P({1, 1, 1})};
  HstCaseStudyMatcher m(workers, 3, 2);
  std::vector<int> candidates = m.Candidates(P({1, 1, 1}), 3);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0], 2);  // co-located
  EXPECT_EQ(candidates[1], 1);  // sibling
  EXPECT_EQ(candidates[2], 0);  // far subtree
}

TEST(HstCaseStudyMatcherTest, ConsumeRemoves) {
  std::vector<LeafCode> workers = {P({0, 0}), P({0, 1})};
  HstCaseStudyMatcher m(workers, 2, 2);
  m.Consume(0);
  EXPECT_EQ(m.available(), 1u);
  EXPECT_EQ(m.Candidates(P({0, 0}), 5), std::vector<int>{1});
}

TEST(HstCaseStudyMatcherTest, LimitRespected) {
  std::vector<LeafCode> workers = {P({0, 0}), P({0, 1}), P({1, 0}), P({1, 1})};
  HstCaseStudyMatcher m(workers, 2, 2);
  EXPECT_EQ(m.Candidates(P({0, 0}), 2).size(), 2u);
}

}  // namespace
}  // namespace tbf
