// Microbenchmarks of HST construction (google-benchmark).
//
// Reference-vs-fast comparison rows pair up by the N counter:
// BM_HstBuildReference (the seed's O(N^2 D) Algorithm 1) against
// BM_HstBuildFast (grid-accelerated min-rank builder, bit-identical tree)
// on the same point sets, up to N = 100k. Two 1M-point CompleteHst smoke
// rows hide behind --big (pass it before the --benchmark_* flags). The
// min-rank query rows audit the allocator: the level-assignment inner loop
// must never touch the heap.

#include <benchmark/benchmark.h>

#include "bench/json_main.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <vector>

#include "common/rng.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "geo/rank_index.h"
#include "hst/complete_hst.h"
#include "hst/snapshot.h"
#include "serve/replay.h"
#include "workload/synthetic.h"

// Global allocation counter feeding the zero-allocation assertions below
// (same idiom as micro_mechanism.cc): replacing operator new counts every
// heap allocation of the process; the audits only ever read deltas.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

static std::atomic<size_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace tbf {
namespace {

// One shared point set per size: comparison rows must measure the same
// input, and generation at 1M is not free.
const std::vector<Point>& GetPoints(int count) {
  static std::map<int, std::vector<Point>>* cache =
      new std::map<int, std::vector<Point>>();
  auto it = cache->find(count);
  if (it == cache->end()) {
    Rng rng(42);
    auto pts = RandomUniformPoints(BBox::Square(200), count, &rng);
    it = cache->emplace(count, std::move(pts).MoveValueUnsafe()).first;
  }
  return it->second;
}

// The seed's quadratic Algorithm 1, kept as the comparison baseline.
void BM_HstBuildReference(benchmark::State& state) {
  const std::vector<Point>& points = GetPoints(static_cast<int>(state.range(0)));
  EuclideanMetric metric;
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    auto tree = HstTree::BuildReference(points, metric, &rng);
    benchmark::DoNotOptimize(tree);
  }
  state.counters["N"] = static_cast<double>(points.size());
}
BENCHMARK(BM_HstBuildReference)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// The grid-accelerated builder on the identical inputs (and identical
// seeds, so it constructs the identical trees). The threads axis exercises
// the thread-pool fan-out; on a single-core host every row is sequential.
void BM_HstBuildFast(benchmark::State& state) {
  const std::vector<Point>& points = GetPoints(static_cast<int>(state.range(0)));
  EuclideanMetric metric;
  HstTreeOptions options;
  options.num_threads = static_cast<int>(state.range(1));
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    auto tree = HstTree::Build(points, metric, &rng, options);
    benchmark::DoNotOptimize(tree);
  }
  state.counters["N"] = static_cast<double>(points.size());
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_HstBuildFast)
    ->Args({1024, 1})
    ->Args({4096, 1})
    ->Args({16384, 1})
    ->Args({100000, 1})
    ->Args({100000, 0})
    ->Unit(benchmark::kMillisecond);

void BM_CompleteHstBuild(benchmark::State& state) {
  const std::vector<Point>& points = GetPoints(static_cast<int>(state.range(0)));
  EuclideanMetric metric;
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    auto tree = CompleteHst::BuildFromPoints(points, metric, &rng);
    benchmark::DoNotOptimize(tree);
  }
  state.counters["N"] = static_cast<double>(points.size());
}
BENCHMARK(BM_CompleteHstBuild)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// One shared CompleteHst per size for the snapshot rows (building the
// 100k tree once is the whole point — the rows measure the alternative).
const CompleteHst& GetTree(int count) {
  static std::map<int, CompleteHst>* cache = new std::map<int, CompleteHst>();
  auto it = cache->find(count);
  if (it == cache->end()) {
    EuclideanMetric metric;
    Rng rng(13);
    auto tree = CompleteHst::BuildFromPoints(GetPoints(count), metric, &rng);
    it = cache->emplace(count, std::move(tree).MoveValueUnsafe()).first;
  }
  return it->second;
}

void BM_HstSnapshotSerialize(benchmark::State& state) {
  const CompleteHst& tree = GetTree(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string blob = SerializeHstSnapshot(tree);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.counters["N"] = static_cast<double>(tree.num_points());
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_HstSnapshotSerialize)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// The restart path: loading the published tree from its snapshot instead
// of rebuilding. Pair this row with BM_CompleteHstBuild at the same N —
// the acceptance bar is >= 20x faster at N = 100k (the parse only
// re-validates and rebuilds the leaf-lookup tables; the nearest-point
// mapper is lazy and first paid by the first MapToNearest* call).
void BM_HstSnapshotParse(benchmark::State& state) {
  const CompleteHst& tree = GetTree(static_cast<int>(state.range(0)));
  const std::string blob = SerializeHstSnapshot(tree);
  for (auto _ : state) {
    auto parsed = ParseHstSnapshot(blob);
    if (!parsed.ok()) {
      state.SkipWithError("snapshot parse failed");
      return;
    }
    benchmark::DoNotOptimize(parsed);
  }
  state.counters["N"] = static_cast<double>(tree.num_points());
  state.counters["bytes"] = static_cast<double>(blob.size());
}
BENCHMARK(BM_HstSnapshotParse)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// The level-assignment inner loop in isolation: min-rank ball queries on
// the grid and k-d paths, with the zero-allocation audit (10k queries
// outside the timed loop must not allocate once).
void MinRankQueryRow(benchmark::State& state, bool use_grid) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Point>& points = GetPoints(n);
  Rng rng(7);
  std::vector<int> pi = rng.Permutation(n);
  std::vector<Point> centers(points.size());
  std::vector<int> rank_of(points.size());
  for (int j = 0; j < n; ++j) {
    centers[static_cast<size_t>(j)] = points[static_cast<size_t>(pi[static_cast<size_t>(j)])];
    rank_of[static_cast<size_t>(pi[static_cast<size_t>(j)])] = j;
  }
  MinRankBallIndex index(std::move(centers), MetricKind::kEuclidean, 1.0);
  const double scaled_radius = 2.5;  // mid-level ball: a handful of covers
  const double prune_radius = scaled_radius * (1.0 + 1e-9);
  if (use_grid && !index.PrepareGrid(prune_radius)) {
    state.SkipWithError("grid refused the radius");
    return;
  }

  const size_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  int sink = 0;
  for (int i = 0; i < 10000; ++i) {
    const size_t u = static_cast<size_t>(i) % points.size();
    sink += index.MinCoveringRank(points[u], scaled_radius, prune_radius,
                                  rank_of[u], use_grid);
  }
  benchmark::DoNotOptimize(sink);
  const size_t audit_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  if (audit_allocs != 0) {
    state.SkipWithError("MinCoveringRank allocated on the query path");
    return;
  }

  size_t u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.MinCoveringRank(
        points[u], scaled_radius, prune_radius, rank_of[u], use_grid));
    u = (u + 1) % points.size();
  }
  state.counters["N"] = static_cast<double>(n);
  state.counters["audit_allocs_per_10k"] = static_cast<double>(audit_allocs);
}

void BM_MinRankQueryGrid(benchmark::State& state) { MinRankQueryRow(state, true); }
void BM_MinRankQueryKd(benchmark::State& state) { MinRankQueryRow(state, false); }
BENCHMARK(BM_MinRankQueryGrid)->Arg(16384)->Arg(100000);
BENCHMARK(BM_MinRankQueryKd)->Arg(16384)->Arg(100000);

void BM_TreeDistance(benchmark::State& state) {
  const std::vector<Point>& points = GetPoints(1024);
  EuclideanMetric metric;
  Rng rng(5);
  auto tree = CompleteHst::BuildFromPoints(points, metric, &rng);
  const LeafCode a = tree->leaf_code_of_point(0);
  const LeafCode b = tree->leaf_code_of_point(tree->num_points() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->TreeDistance(a, b));
  }
}
BENCHMARK(BM_TreeDistance);

}  // namespace

// --big smoke: a full million-point publish-side build (Algorithm 1 +
// complete-tree padding + leaf codes + nearest-point mapper), all
// hardware threads. One iteration — the rows exist to prove city-scale
// construction completes, not to average it. The build must yield a
// leaf codec, and the tree must then serve a short event replay on codes
// (outside the timing). Outside the anonymous namespace so main() can
// register the rows conditionally.
void BuildAndServeBig(benchmark::State& state,
                      const std::vector<Point>& points) {
  EuclideanMetric metric;
  HstTreeOptions options;
  options.num_threads = 0;
  std::shared_ptr<const CompleteHst> tree;
  for (auto _ : state) {
    Rng rng(0);
    auto built = CompleteHst::BuildFromPoints(points, metric, &rng, options);
    if (!built.ok()) {
      state.SkipWithError(built.status().ToString().c_str());
      return;
    }
    tree = std::make_shared<const CompleteHst>(
        std::move(built).MoveValueUnsafe());
  }
  const LeafCodec& codec = *tree->codec();
  state.counters["N"] = static_cast<double>(points.size());
  state.counters["published_points"] = tree->num_points();
  state.counters["depth"] = codec.depth();
  state.counters["arity"] = codec.arity();
  state.counters["code_bits"] = codec.depth() * codec.bits_per_digit();

  auto framework = TbfFramework::FromTree(tree);
  SyntheticEventConfig trace_config;
  trace_config.base.num_workers = 400;
  trace_config.base.num_tasks = 200;
  trace_config.base.seed = 7;
  auto trace = GenerateEventTrace(trace_config);
  if (!framework.ok() || !trace.ok()) {
    state.SkipWithError("replay setup failed");
    return;
  }
  ReplayOptions replay;
  replay.epoch_seconds = 60.0;
  replay.num_shards = 4;
  auto report = RunEventReplay(*framework, *trace, replay);
  if (!report.ok() || report->assigned == 0) {
    state.SkipWithError(report.ok() ? "replay assigned no task"
                                    : report.status().ToString().c_str());
    return;
  }
  state.counters["replay_assigned"] = static_cast<double>(report->assigned);
}

// Uniform random points: their minimum spacing is tiny, so the raw tree
// is deep and wide (depth 25 x arity 36 from seed 0, a 150-bit leaf
// code). BuildFromPoints snaps them to the coarsest lattice that fits
// 128 bits, so this row pays two builds.
void BM_CompleteHstBuildBig(benchmark::State& state) {
  BuildAndServeBig(state, GetPoints(1000000));
}

// The 1000^2 grid of predefined points, the shape the paper publishes:
// it fits codes as built.
void BM_CompleteHstServeGridBig(benchmark::State& state) {
  BuildAndServeBig(state, std::move(UniformGridPoints(BBox::Square(200), 1000))
                              .MoveValueUnsafe());
}

}  // namespace tbf

int main(int argc, char** argv) {
  bool big = false;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--big") == 0) {
      big = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (big) {
    benchmark::RegisterBenchmark("BM_CompleteHstBuildBig",
                                 tbf::BM_CompleteHstBuildBig)
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
    benchmark::RegisterBenchmark("BM_CompleteHstServeGridBig",
                                 tbf::BM_CompleteHstServeGridBig)
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
  return tbf::bench::RunBenchmarksWithJsonDefault(
      static_cast<int>(args.size()), args.data(), "micro_hst_build");
}
