#include "matching/runner.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "workload/synthetic.h"

namespace tbf {
namespace {

OnlineInstance SmallInstance(int tasks = 60, int workers = 120,
                             uint64_t seed = 11) {
  SyntheticConfig config;
  config.num_tasks = tasks;
  config.num_workers = workers;
  config.seed = seed;
  auto instance = GenerateSynthetic(config);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).MoveValueUnsafe();
}

PipelineConfig SmallConfig() {
  PipelineConfig config;
  config.epsilon = 0.6;
  config.seed = 3;
  config.grid_side = 8;
  return config;
}

TEST(RunnerTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kLapGr), "Lap-GR");
  EXPECT_STREQ(AlgorithmName(Algorithm::kLapHg), "Lap-HG");
  EXPECT_STREQ(AlgorithmName(Algorithm::kTbf), "TBF");
  EXPECT_STREQ(AlgorithmName(Algorithm::kNoPrivacyGreedy), "NoPriv-GR");
  EXPECT_STREQ(AlgorithmName(Algorithm::kOfflineOptimal), "OPT");
  EXPECT_STREQ(CaseStudyAlgorithmName(CaseStudyAlgorithm::kProb), "Prob");
  EXPECT_STREQ(CaseStudyAlgorithmName(CaseStudyAlgorithm::kTbf), "TBF");
}

TEST(RunnerTest, RejectsEmptyInstance) {
  OnlineInstance empty;
  EXPECT_FALSE(RunPipeline(Algorithm::kTbf, empty, SmallConfig()).ok());
}

TEST(RunnerTest, RejectsMoreTasksThanWorkers) {
  OnlineInstance inst = SmallInstance(30, 20);
  EXPECT_FALSE(RunPipeline(Algorithm::kLapGr, inst, SmallConfig()).ok());
}

class RunnerAllAlgorithmsTest : public testing::TestWithParam<Algorithm> {};

TEST_P(RunnerAllAlgorithmsTest, ProducesCompleteValidMatching) {
  OnlineInstance inst = SmallInstance();
  auto metrics = RunPipeline(GetParam(), inst, SmallConfig());
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  // Every task matched (|T| <= |W|), to distinct workers.
  EXPECT_EQ(metrics->matched, inst.tasks.size());
  EXPECT_EQ(metrics->matching.pairs.size(), inst.tasks.size());
  std::set<int> used;
  for (const Assignment& a : metrics->matching.pairs) {
    ASSERT_GE(a.worker_id, 0);
    ASSERT_LT(a.worker_id, static_cast<int>(inst.workers.size()));
    EXPECT_TRUE(used.insert(a.worker_id).second) << "worker reused";
  }
  EXPECT_GT(metrics->total_distance, 0.0);
  EXPECT_GE(metrics->match_seconds, 0.0);
  EXPECT_GT(metrics->memory_mb, 0.0);
  EXPECT_EQ(metrics->algorithm, AlgorithmName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    All, RunnerAllAlgorithmsTest,
    testing::Values(Algorithm::kLapGr, Algorithm::kLapHg, Algorithm::kTbf,
                    Algorithm::kNoPrivacyGreedy, Algorithm::kOfflineOptimal));

TEST(RunnerTest, DeterministicForSeed) {
  OnlineInstance inst = SmallInstance();
  auto a = RunPipeline(Algorithm::kTbf, inst, SmallConfig());
  auto b = RunPipeline(Algorithm::kTbf, inst, SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->total_distance, b->total_distance);
  for (size_t i = 0; i < a->matching.pairs.size(); ++i) {
    EXPECT_EQ(a->matching.pairs[i].worker_id, b->matching.pairs[i].worker_id);
  }
}

TEST(RunnerTest, DifferentSeedsDifferentObfuscation) {
  OnlineInstance inst = SmallInstance();
  PipelineConfig c1 = SmallConfig();
  PipelineConfig c2 = SmallConfig();
  c2.seed = c1.seed + 1;
  auto a = RunPipeline(Algorithm::kLapGr, inst, c1);
  auto b = RunPipeline(Algorithm::kLapGr, inst, c2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same instance, different noise: at least one assignment should differ.
  bool any_diff = false;
  for (size_t i = 0; i < a->matching.pairs.size(); ++i) {
    if (a->matching.pairs[i].worker_id != b->matching.pairs[i].worker_id) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RunnerTest, ThreadCountDoesNotChangeResults) {
  // The batched obfuscation stage derives item i's noise from ForkAt(i),
  // so any pool width must reproduce the single-threaded run bit for bit.
  OnlineInstance inst = SmallInstance();
  for (Algorithm algorithm : {Algorithm::kTbf, Algorithm::kLapHg,
                              Algorithm::kLapGr}) {
    PipelineConfig serial = SmallConfig();
    serial.threads = 1;
    PipelineConfig wide = SmallConfig();
    wide.threads = 4;
    auto a = RunPipeline(algorithm, inst, serial);
    auto b = RunPipeline(algorithm, inst, wide);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(a->total_distance, b->total_distance)
        << AlgorithmName(algorithm);
    ASSERT_EQ(a->matching.pairs.size(), b->matching.pairs.size());
    for (size_t i = 0; i < a->matching.pairs.size(); ++i) {
      EXPECT_EQ(a->matching.pairs[i].worker_id, b->matching.pairs[i].worker_id);
    }
    EXPECT_EQ(b->stages.threads, 4);
    EXPECT_EQ(b->stages.batch_items, inst.workers.size() + inst.tasks.size());
  }
}

TEST(RunnerTest, StageBreakdownCoversObfuscation) {
  OnlineInstance inst = SmallInstance();
  auto metrics = RunPipeline(Algorithm::kTbf, inst, SmallConfig());
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(metrics->stages.map_seconds, 0.0);
  EXPECT_GE(metrics->stages.obfuscate_seconds, 0.0);
  // The split stages sit inside the aggregate client-reporting wall clock.
  EXPECT_LE(metrics->stages.map_seconds + metrics->stages.obfuscate_seconds,
            metrics->obfuscate_seconds + 1e-9);
  EXPECT_DOUBLE_EQ(metrics->stages.assign_seconds, metrics->match_seconds);
}

TEST(RunnerTest, OptIsLowerBoundOnAllOnlineAlgorithms) {
  OnlineInstance inst = SmallInstance(40, 80, 5);
  PipelineConfig config = SmallConfig();
  auto opt = RunPipeline(Algorithm::kOfflineOptimal, inst, config);
  ASSERT_TRUE(opt.ok());
  for (Algorithm algorithm : {Algorithm::kLapGr, Algorithm::kLapHg,
                              Algorithm::kTbf, Algorithm::kNoPrivacyGreedy}) {
    auto m = RunPipeline(algorithm, inst, config);
    ASSERT_TRUE(m.ok());
    EXPECT_GE(m->total_distance, opt->total_distance - 1e-9)
        << AlgorithmName(algorithm);
  }
}

TEST(RunnerTest, NoPrivacyGreedyBeatsNoisyGreedyOnAverage) {
  // Obfuscation cannot help the same greedy algorithm in expectation.
  PipelineConfig config = SmallConfig();
  config.epsilon = 0.1;  // heavy noise
  double clean_total = 0, noisy_total = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    OnlineInstance inst = SmallInstance(50, 150, seed + 100);
    config.seed = seed;
    auto clean = RunPipeline(Algorithm::kNoPrivacyGreedy, inst, config);
    auto noisy = RunPipeline(Algorithm::kLapGr, inst, config);
    ASSERT_TRUE(clean.ok());
    ASSERT_TRUE(noisy.ok());
    clean_total += clean->total_distance;
    noisy_total += noisy->total_distance;
  }
  EXPECT_LT(clean_total, noisy_total);
}

TEST(RunnerTest, EnginesDoNotChangeResults) {
  OnlineInstance inst = SmallInstance();
  PipelineConfig scan = SmallConfig();
  PipelineConfig fast = SmallConfig();
  fast.greedy_engine = GreedyEngine::kKdTree;
  fast.hst_engine = HstEngine::kIndex;
  for (Algorithm algorithm : {Algorithm::kLapGr, Algorithm::kTbf}) {
    auto a = RunPipeline(algorithm, inst, scan);
    auto b = RunPipeline(algorithm, inst, fast);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(a->total_distance, b->total_distance)
        << AlgorithmName(algorithm);
  }
}

// Pins the figure pipelines' draws: any change to how Lap-HG or TBF map,
// obfuscate or match shows up here as a different total or assignment.
TEST(RunnerTest, PinnedPipelineDraws) {
  struct Pin {
    Algorithm algorithm;
    double total_distance;
    std::vector<int> first_workers;
  };
  const std::vector<Pin> pins = {
      {Algorithm::kTbf, 867.87201866273972,
       {2, 4, 6, 1, 0, 60, 8, 7, 18, 10, 20, 23, 13, 9, 11, 74, 24, 14, 17, 35}},
      {Algorithm::kLapHg, 972.6990895122799,
       {2, 4, 6, 8, 0, 60, 11, 7, 9, 10, 18, 59, 3, 17, 19, 29, 13, 14, 22,
        35}},
  };
  OnlineInstance inst = SmallInstance();
  for (const Pin& pin : pins) {
    for (HstEngine engine : {HstEngine::kLinearScan, HstEngine::kIndex}) {
      SCOPED_TRACE(std::string(AlgorithmName(pin.algorithm)) + " engine " +
                   std::to_string(static_cast<int>(engine)));
      PipelineConfig config = SmallConfig();
      config.hst_engine = engine;
      auto metrics = RunPipeline(pin.algorithm, inst, config);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_EQ(metrics->total_distance, pin.total_distance);
      std::vector<int> first;
      for (size_t i = 0; i < pin.first_workers.size(); ++i) {
        first.push_back(metrics->matching.pairs[i].worker_id);
      }
      EXPECT_EQ(first, pin.first_workers);
    }
  }
}

CaseStudyInstance SmallCaseStudy(uint64_t seed = 21) {
  SyntheticCaseStudyConfig config;
  config.base.num_tasks = 50;
  config.base.num_workers = 100;
  config.base.seed = seed;
  auto instance = GenerateSyntheticCaseStudy(config);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).MoveValueUnsafe();
}

class CaseStudyAlgorithmsTest : public testing::TestWithParam<CaseStudyAlgorithm> {};

TEST_P(CaseStudyAlgorithmsTest, ProducesSaneMetrics) {
  CaseStudyInstance inst = SmallCaseStudy();
  CaseStudyConfig config;
  config.pipeline = SmallConfig();
  auto metrics = RunCaseStudy(GetParam(), inst, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_LE(metrics->matching_size, inst.tasks.size());
  EXPECT_GE(metrics->notifications, metrics->matching_size);
  EXPECT_LE(metrics->notifications,
            inst.tasks.size() * config.max_notifications);
  EXPECT_GT(metrics->memory_mb, 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, CaseStudyAlgorithmsTest,
                         testing::Values(CaseStudyAlgorithm::kProb,
                                         CaseStudyAlgorithm::kTbf));

TEST(CaseStudyTest, MoreNotificationsNeverHurt) {
  CaseStudyInstance inst = SmallCaseStudy(33);
  CaseStudyConfig one;
  one.pipeline = SmallConfig();
  one.max_notifications = 1;
  CaseStudyConfig five;
  five.pipeline = SmallConfig();
  five.max_notifications = 5;
  auto a = RunCaseStudy(CaseStudyAlgorithm::kTbf, inst, one);
  auto b = RunCaseStudy(CaseStudyAlgorithm::kTbf, inst, five);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(b->matching_size, a->matching_size);
}

TEST(CaseStudyTest, PinnedTbfDraws) {
  CaseStudyInstance inst = SmallCaseStudy();
  CaseStudyConfig config;
  config.pipeline = SmallConfig();
  for (const auto& [notify, size, notifications] :
       {std::tuple<size_t, size_t, size_t>{1, 25, 50}, {5, 44, 111}}) {
    SCOPED_TRACE("max_notifications " + std::to_string(notify));
    config.max_notifications = notify;
    auto metrics = RunCaseStudy(CaseStudyAlgorithm::kTbf, inst, config);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(metrics->matching_size, size);
    EXPECT_EQ(metrics->notifications, notifications);
  }
}

TEST(CaseStudyTest, RejectsMismatchedRadii) {
  CaseStudyInstance inst = SmallCaseStudy();
  inst.radii.pop_back();
  CaseStudyConfig config;
  config.pipeline = SmallConfig();
  EXPECT_FALSE(RunCaseStudy(CaseStudyAlgorithm::kProb, inst, config).ok());
}

}  // namespace
}  // namespace tbf
