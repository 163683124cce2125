// Golden equivalence: under canonical tie-breaking, the flat-index engine
// must produce byte-identical assignment sequences to the legacy linear
// scan on real pipeline leaves (≥3 synthetic instances), and the uniform
// tie-break engines must agree given equally seeded rngs on the index side.

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "hst/hst_map_index.h"
#include "matching/hst_greedy.h"
#include "workload/synthetic.h"

namespace tbf {
namespace {

struct Episode {
  std::vector<LeafCode> workers;
  std::vector<LeafCode> tasks;
  int depth = 0;
  int arity = 0;
};

Episode MakeEpisode(uint64_t seed, int num_workers, int num_tasks,
                    int grid_side, double epsilon) {
  SyntheticConfig config;
  config.num_workers = num_workers;
  config.num_tasks = num_tasks;
  config.seed = seed;
  auto instance = GenerateSynthetic(config);
  TBF_CHECK(instance.ok()) << instance.status();

  Rng rng(seed + 1);
  EuclideanMetric metric;
  auto grid = UniformGridPoints(instance->region, grid_side);
  TBF_CHECK(grid.ok()) << grid.status();
  TbfOptions options;
  options.epsilon = epsilon;
  auto framework =
      TbfFramework::Build(std::move(grid).MoveValueUnsafe(), metric, &rng, options);
  TBF_CHECK(framework.ok()) << framework.status();

  Episode episode;
  episode.depth = framework->tree().depth();
  episode.arity = framework->tree().arity();
  Rng obf(seed + 2);
  for (const Point& w : instance->workers) {
    episode.workers.push_back(framework->ObfuscateLocation(w, &obf));
  }
  for (const Point& t : instance->tasks) {
    episode.tasks.push_back(framework->ObfuscateLocation(t, &obf));
  }
  return episode;
}

// The three synthetic instances of the acceptance criterion, plus shape
// variety (worker/task ratios, grid sizes, epsilon regimes).
const struct {
  uint64_t seed;
  int workers, tasks, grid_side;
  double epsilon;
} kInstances[] = {
    {11, 300, 150, 16, 0.6},
    {12, 500, 500, 32, 0.2},
    {13, 120, 40, 8, 1.0},
    {14, 700, 350, 32, 0.4},
};

TEST(GoldenEquivalenceTest, FlatIndexMatchesLinearScanCanonical) {
  for (const auto& spec : kInstances) {
    Episode episode = MakeEpisode(spec.seed, spec.workers, spec.tasks,
                                  spec.grid_side, spec.epsilon);
    HstGreedyMatcher scan(episode.workers, episode.depth, episode.arity,
                          HstEngine::kLinearScan, HstTieBreak::kCanonical);
    HstGreedyMatcher index(episode.workers, episode.depth, episode.arity,
                           HstEngine::kIndex, HstTieBreak::kCanonical);
    for (size_t t = 0; t < episode.tasks.size(); ++t) {
      const int from_scan = scan.Assign(episode.tasks[t]);
      const int from_index = index.Assign(episode.tasks[t]);
      ASSERT_EQ(from_scan, from_index)
          << "instance seed " << spec.seed << ", task " << t;
    }
    // Pool exhaustion behaves identically too.
    EXPECT_EQ(scan.available(), index.available());
  }
}

TEST(GoldenEquivalenceTest, FlatIndexMatchesMapIndexUniformDrawForDraw) {
  for (const auto& spec : kInstances) {
    Episode episode = MakeEpisode(spec.seed, spec.workers, spec.tasks,
                                  spec.grid_side, spec.epsilon);
    HstAvailabilityIndex flat(episode.depth, episode.arity);
    HstAvailabilityMapIndex reference(episode.depth, episode.arity);
    const LeafCodec& codec = *flat.codec();
    for (size_t i = 0; i < episode.workers.size(); ++i) {
      flat.Insert(episode.workers[i], static_cast<int>(i));
      reference.Insert(codec.Unpack(episode.workers[i]), static_cast<int>(i));
    }
    Rng flat_rng(spec.seed);
    Rng ref_rng(spec.seed);
    for (const LeafCode task : episode.tasks) {
      auto a = flat.NearestUniform(task, &flat_rng);
      auto b = reference.NearestUniform(codec.Unpack(task), &ref_rng);
      ASSERT_EQ(a, b);
      ASSERT_TRUE(a.has_value());
      const LeafCode worker = episode.workers[static_cast<size_t>(a->first)];
      flat.Remove(worker, a->first);
      reference.Remove(codec.Unpack(worker), a->first);
    }
    EXPECT_EQ(flat_rng.NextU64(), ref_rng.NextU64());
  }
}

}  // namespace
}  // namespace tbf
