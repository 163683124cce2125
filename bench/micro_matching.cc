// Microbenchmarks of the matchers (google-benchmark): one full online
// episode (all tasks assigned) per iteration, so per-assignment cost is
// time / #tasks. Compares the paper's scan engines with the indexed ones,
// and the flat node-pool availability index against the map-based golden
// reference (steady-state nearest queries, up to 100k workers). Emits
// BENCH_micro_matching.json (see json_main.h).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "bench/json_main.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "hst/hst_index.h"
#include "matching/greedy_euclid.h"
#include "matching/hst_greedy.h"
#include "matching/runner.h"
#include "tests/hst/hst_map_index.h"
#include "workload/synthetic.h"

namespace tbf {
namespace {

std::vector<Point> RandomPoints(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    points.push_back({rng.Uniform(0, 200), rng.Uniform(0, 200)});
  }
  return points;
}

void RunEuclidEpisode(benchmark::State& state, GreedyEngine engine) {
  const int workers = static_cast<int>(state.range(0));
  const int tasks = workers / 2;
  std::vector<Point> worker_points = RandomPoints(workers, 1);
  std::vector<Point> task_points = RandomPoints(tasks, 2);
  for (auto _ : state) {
    GreedyEuclidMatcher matcher(worker_points, engine);
    for (const Point& t : task_points) {
      benchmark::DoNotOptimize(matcher.Assign(t));
    }
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}

void BM_EuclidGreedyLinear(benchmark::State& state) {
  RunEuclidEpisode(state, GreedyEngine::kLinearScan);
}
BENCHMARK(BM_EuclidGreedyLinear)->Arg(1000)->Arg(4000);

void BM_EuclidGreedyKdTree(benchmark::State& state) {
  RunEuclidEpisode(state, GreedyEngine::kKdTree);
}
BENCHMARK(BM_EuclidGreedyKdTree)->Arg(1000)->Arg(4000)->Arg(16000);

struct HstData {
  std::vector<LeafCode> workers;
  std::vector<LeafCode> tasks;
  int depth;
  int arity;
};

HstData MakeHstData(int workers) {
  Rng rng(3);
  EuclideanMetric metric;
  auto grid = UniformGridPoints(BBox::Square(200), 32);
  TbfOptions options;
  auto framework =
      TbfFramework::Build(std::move(grid).MoveValueUnsafe(), metric, &rng, options);
  HstData data;
  data.depth = framework->tree().depth();
  data.arity = framework->tree().arity();
  Rng obf(4);
  for (const Point& p : RandomPoints(workers, 5)) {
    data.workers.push_back(framework->ObfuscateLocation(p, &obf));
  }
  for (const Point& p : RandomPoints(workers / 2, 6)) {
    data.tasks.push_back(framework->ObfuscateLocation(p, &obf));
  }
  return data;
}

void RunHstEpisode(benchmark::State& state, HstEngine engine) {
  HstData data = MakeHstData(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    HstGreedyMatcher matcher(data.workers, data.depth, data.arity, engine);
    for (const LeafCode t : data.tasks) {
      benchmark::DoNotOptimize(matcher.Assign(t));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.tasks.size()));
}

void BM_HstGreedyScan(benchmark::State& state) {
  RunHstEpisode(state, HstEngine::kLinearScan);
}
BENCHMARK(BM_HstGreedyScan)->Arg(1000)->Arg(4000);

void BM_HstGreedyIndex(benchmark::State& state) {
  RunHstEpisode(state, HstEngine::kIndex);
}
BENCHMARK(BM_HstGreedyIndex)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(100000);

// --- Availability-index engines head to head: steady-state Nearest ---
// The acceptance gate for the flat engine: >= 5x over the map-based
// reference at n = 100k workers.
//
// A production deployment publishes a grid fine enough to resolve its user
// density, so the index runs sparse: far more leaves than workers, and the
// nearest worker typically sits several levels up. Model that shape
// directly (depth 12, arity 4 — 16.7M logical leaves) with uniform random
// worker/query leaves; the index only ever sees (depth, arity) + leaf
// paths, so no O(n^2) tree construction is needed at 100k.

// Leaf key each index takes: the map reference keys on digit paths, the
// flat index on packed codes.
const LeafPath& KeyOf(const HstAvailabilityMapIndex&, const LeafPath& leaf) {
  return leaf;
}
LeafCode KeyOf(const HstAvailabilityIndex& index, const LeafPath& leaf) {
  return index.codec()->Pack(leaf);
}

template <typename Index>
void RunNearestQueries(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int depth = 12;
  const int arity = 4;
  Rng rng(41);
  Index index(depth, arity);
  for (int i = 0; i < workers; ++i) {
    index.Insert(KeyOf(index, RandomLeafPath(depth, arity, &rng)), i);
  }
  std::vector<std::decay_t<decltype(KeyOf(index, LeafPath()))>> queries;
  for (int i = 0; i < 1024; ++i) {
    queries.push_back(KeyOf(index, RandomLeafPath(depth, arity, &rng)));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Nearest(queries[next]));
    next = (next + 1) % queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_NearestMapIndex(benchmark::State& state) {
  RunNearestQueries<HstAvailabilityMapIndex>(state);
}
BENCHMARK(BM_NearestMapIndex)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_NearestFlatIndex(benchmark::State& state) {
  RunNearestQueries<HstAvailabilityIndex>(state);
}
BENCHMARK(BM_NearestFlatIndex)->Arg(1000)->Arg(10000)->Arg(100000);

// --- End-to-end TBF pipeline throughput (tasks assigned per second) ---
// kLinearScan reproduces the seed configuration; kIndex is the batched
// flat-engine pipeline. Target: >= 3x at large n.

void RunTbfPipeline(benchmark::State& state, HstEngine engine) {
  const int workers = static_cast<int>(state.range(0));
  SyntheticConfig config;
  config.num_workers = workers;
  config.num_tasks = workers / 2;
  config.seed = 17;
  auto instance = GenerateSynthetic(config);
  PipelineConfig pipeline;
  pipeline.hst_engine = engine;
  for (auto _ : state) {
    auto metrics = RunPipeline(Algorithm::kTbf, *instance, pipeline);
    if (!metrics.ok()) {
      state.SkipWithError("pipeline failed");
      return;
    }
    benchmark::DoNotOptimize(metrics->total_distance);
  }
  state.SetItemsProcessed(state.iterations() * config.num_tasks);
}

void BM_TbfPipelineScan(benchmark::State& state) {
  RunTbfPipeline(state, HstEngine::kLinearScan);
}
BENCHMARK(BM_TbfPipelineScan)->Unit(benchmark::kMillisecond)->Arg(16000);

void BM_TbfPipelineBatchIndex(benchmark::State& state) {
  RunTbfPipeline(state, HstEngine::kIndex);
}
BENCHMARK(BM_TbfPipelineBatchIndex)
    ->Unit(benchmark::kMillisecond)
    ->Arg(16000)
    ->Arg(100000);

}  // namespace
}  // namespace tbf

TBF_BENCHMARK_JSON_MAIN("micro_matching");
