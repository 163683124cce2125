// Microbenchmarks of the privacy mechanisms (google-benchmark):
// the complexity claims of Sec. III-C/D — Alg. 2 enumerates O(c^D) leaves,
// Alg. 3 walks O(D) — plus the planar Laplace baseline sampler, the
// code-native samplers (walk-vs-oblivious and path-vs-code rows pair up
// by identical depth/arity counters for BENCH JSON comparisons), and the
// availability-index churn (packed insert/remove vs the LeafPath entry
// point), the per-report Rng stream set-up, and the batched client step
// (ObfuscateCodes: nearest point, then draws). The oblivious row also
// audits the allocator: one sample must never touch the heap.

#include <benchmark/benchmark.h>

#include "bench/json_main.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/hst_mechanism.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "hst/hst_index.h"
#include "privacy/planar_laplace.h"

// Global allocation counter feeding the zero-allocation assertions below.
// Replacing operator new in the benchmark binary counts every heap
// allocation of the process; the audits only ever read deltas. GCC's
// mismatch checker pairs the replacement delete with the *default* new and
// warns spuriously — new and delete are replaced together here.
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

// One shared tree/mechanism per grid side (built lazily, reused across
// iterations — construction cost is measured separately below).
struct Setup {
  CompleteHst tree;
  HstMechanism mechanism;
};

const Setup& GetSetup(int grid_side) {
  static std::map<int, Setup>* cache = new std::map<int, Setup>();
  auto it = cache->find(grid_side);
  if (it == cache->end()) {
    Rng rng(7);
    EuclideanMetric metric;
    auto grid = UniformGridPoints(BBox::Square(200), grid_side);
    auto tree = CompleteHst::BuildFromPoints(*grid, metric, &rng);
    auto mech = HstMechanism::Build(*tree, 0.6);
    it = cache
             ->emplace(grid_side,
                       Setup{std::move(tree).MoveValueUnsafe(),
                             std::move(mech).MoveValueUnsafe()})
             .first;
  }
  return it->second;
}

// Algorithm 3: O(D) per sample regardless of arity.
void BM_RandomWalkObfuscate(benchmark::State& state) {
  const Setup& setup = GetSetup(static_cast<int>(state.range(0)));
  Rng rng(1);
  const LeafPath x = setup.tree.leaf_of_point(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.mechanism.Obfuscate(x, &rng));
  }
  state.counters["depth"] = setup.tree.depth();
  state.counters["arity"] = setup.tree.arity();
}
BENCHMARK(BM_RandomWalkObfuscate)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Algorithm 2: O(c^D) per sample — only feasible on the small tree.
void BM_NaiveSample(benchmark::State& state) {
  const Setup& setup = GetSetup(static_cast<int>(state.range(0)));
  Rng rng(1);
  const LeafPath x = setup.tree.leaf_of_point(0);
  for (auto _ : state) {
    auto z = setup.mechanism.SampleNaive(x, &rng, /*max_leaves=*/1 << 22);
    if (!z.ok()) state.SkipWithError("tree too large for Alg. 2");
    benchmark::DoNotOptimize(z);
  }
  state.counters["leaves"] = setup.tree.num_leaves();
}
BENCHMARK(BM_NaiveSample)->Arg(4)->Arg(8);

// Closed-form probability evaluation (log space).
void BM_ExactProbability(benchmark::State& state) {
  const Setup& setup = GetSetup(16);
  Rng rng(2);
  const LeafPath x = setup.tree.leaf_of_point(0);
  LeafPath z = setup.mechanism.Obfuscate(x, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.mechanism.Probability(x, z));
  }
}
BENCHMARK(BM_ExactProbability);

// ------------------------- code-native sampler rows -----------------------
// Exact (depth, arity) shapes via FromParts — the mechanism only reads the
// shape and scale, so a handful of real points pins it precisely. The
// reference shape of these rows is depth 16, arity 4.

const Setup& GetShapedSetup(int depth, int arity) {
  static std::map<std::pair<int, int>, Setup>* cache =
      new std::map<std::pair<int, int>, Setup>();
  auto key = std::make_pair(depth, arity);
  auto it = cache->find(key);
  if (it == cache->end()) {
    const LeafCodec codec(depth, arity);
    std::vector<Point> points;
    std::vector<LeafCode> codes;
    for (int i = 0; i < 2; ++i) {
      points.push_back({static_cast<double>(i), 0.0});
      codes.push_back(codec.Pack(
          LeafPath(static_cast<size_t>(depth), static_cast<char16_t>(i))));
    }
    auto tree = CompleteHst::FromParts(depth, arity, 1.0, std::move(points),
                                       std::move(codes));
    auto mech = HstMechanism::Build(*tree, 0.05);
    it = cache
             ->emplace(key, Setup{std::move(tree).MoveValueUnsafe(),
                                  std::move(mech).MoveValueUnsafe()})
             .first;
  }
  return it->second;
}

// Path-domain walk: the pre-existing serve-path cost (heap-allocated
// LeafPath out, one Bernoulli per level + one UniformInt per digit).
void BM_WalkObfuscatePath(benchmark::State& state) {
  const Setup& setup = GetShapedSetup(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1)));
  Rng rng(1);
  const LeafPath x = setup.tree.leaf_of_point(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.mechanism.Obfuscate(x, &rng));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["depth"] = setup.tree.depth();
  state.counters["arity"] = setup.tree.arity();
}
BENCHMARK(BM_WalkObfuscatePath)->Args({16, 4})->Args({32, 2})->Args({10, 8});

// Code-domain walk: same draw sequence, packed output (path-vs-code row).
void BM_ObfuscateCodeWalk(benchmark::State& state) {
  const Setup& setup = GetShapedSetup(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1)));
  Rng rng(1);
  const LeafCode x = setup.tree.leaf_code_of_point(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.mechanism.ObfuscateCodeWalk(x, &rng));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["depth"] = setup.tree.depth();
  state.counters["arity"] = setup.tree.arity();
}
BENCHMARK(BM_ObfuscateCodeWalk)->Args({16, 4})->Args({32, 2})->Args({10, 8});

// Timing-oblivious sampler (oblivious-vs-walk row): constant-shape
// schedule — depth + 2 rng words per sample no matter the truth or the
// drawn level — with a zero-allocation audit: 10k samples outside the
// timed loop must never touch the heap.
void BM_ObfuscateCodeOblivious(benchmark::State& state) {
  const Setup& setup = GetShapedSetup(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1)));
  Rng rng(1);
  const LeafCode x = setup.tree.leaf_code_of_point(0);

  const size_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    benchmark::DoNotOptimize(setup.mechanism.ObfuscateCodeOblivious(x, &rng));
  }
  const size_t audit_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  if (audit_allocs != 0) {
    state.SkipWithError("ObfuscateCodeOblivious allocated on the sampling path");
    return;
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.mechanism.ObfuscateCodeOblivious(x, &rng));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["depth"] = setup.tree.depth();
  state.counters["arity"] = setup.tree.arity();
  state.counters["audit_allocs_per_10k"] = static_cast<double>(audit_allocs);
}
BENCHMARK(BM_ObfuscateCodeOblivious)
    ->Args({16, 4})
    ->Args({32, 2})
    ->Args({10, 8});

// --------------------------- index churn rows ------------------------------
// Steady-state insert/remove churn of the availability index at the
// sampler rows' reference shape: one worker leaves a leaf, another arrives
// elsewhere — exactly what every assignment + re-registration costs the
// trie, reading digits straight out of the code.

constexpr int kChurnItems = 4096;

std::vector<LeafPath> ChurnLeaves(const Setup& setup, int count) {
  Rng rng(42);
  std::vector<LeafPath> leaves;
  leaves.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    leaves.push_back(
        RandomLeafPath(setup.tree.depth(), setup.tree.arity(), &rng));
  }
  return leaves;
}

void BM_IndexChurnCode(benchmark::State& state) {
  const Setup& setup = GetShapedSetup(16, 4);
  const std::vector<LeafPath> leaves = ChurnLeaves(setup, 2 * kChurnItems);
  HstAvailabilityIndex index(setup.tree.depth(), setup.tree.arity());
  std::vector<LeafCode> codes;
  codes.reserve(leaves.size());
  for (const LeafPath& leaf : leaves) codes.push_back(index.codec()->Pack(leaf));
  for (int i = 0; i < kChurnItems; ++i) {
    index.Insert(codes[static_cast<size_t>(i)], i);
  }
  size_t cursor = 0;
  for (auto _ : state) {
    const size_t i = cursor % kChurnItems;
    const bool to_b = (cursor / kChurnItems) % 2 == 0;
    index.Remove(codes[to_b ? i : i + kChurnItems], static_cast<int>(i));
    index.Insert(codes[to_b ? i + kChurnItems : i], static_cast<int>(i));
    ++cursor;
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["items"] = kChurnItems;
}
BENCHMARK(BM_IndexChurnCode);

// Baseline: planar Laplace sampling (Lambert W based inverse CDF).
void BM_PlanarLaplace(benchmark::State& state) {
  PlanarLaplaceMechanism mechanism(0.6);
  Rng rng(3);
  Point p{100, 100};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.Obfuscate(p, &rng));
  }
}
BENCHMARK(BM_PlanarLaplace);

// Client-side mapping: nearest predefined point, by rounding onto the grid
// (every grid is a lattice; 32 x 32 is the grid perfbench/ publishes).
void BM_MapToNearestLeaf(benchmark::State& state) {
  const Setup& setup = GetSetup(static_cast<int>(state.range(0)));
  Rng rng(4);
  for (auto _ : state) {
    Point p{rng.Uniform(0, 200), rng.Uniform(0, 200)};
    benchmark::DoNotOptimize(setup.tree.MapToNearestLeafCode(p));
  }
}
BENCHMARK(BM_MapToNearestLeaf)->Arg(16)->Arg(32)->Arg(64);

// Per-report stream cost: a fresh ForkAt child plus N words, the pattern of
// the batched obfuscation pipeline (one child per report, about depth + 2
// words each). 400 words crosses the first full regeneration at 312.
void BM_RngForkAtDraws(benchmark::State& state) {
  const Rng stream(5);
  const int draws = static_cast<int>(state.range(0));
  uint64_t index = 0;
  for (auto _ : state) {
    Rng item = stream.ForkAt(index++);
    uint64_t sum = 0;
    for (int i = 0; i < draws; ++i) sum += item.NextU64();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngForkAtDraws)->Arg(4)->Arg(16)->Arg(64)->Arg(400);

// The whole client step per report, as the replay runs it: a batch of
// 1,024 locations on the 32 x 32 grid mapped to their nearest points and
// obfuscated (walk sampler) on one thread, ForkAt streams opened four at a
// time.
void BM_ObfuscateCodes(benchmark::State& state) {
  auto grid = UniformGridPoints(BBox::Square(200), 32);
  Rng build_rng(7);
  auto framework = TbfFramework::Build(*grid, EuclideanMetric(), &build_rng);
  Rng rng(8);
  std::vector<Point> locations(1024);
  for (Point& p : locations) p = {rng.Uniform(0, 200), rng.Uniform(0, 200)};
  ThreadPool pool(1);
  const Rng stream(9);
  uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        framework->ObfuscateCodes(locations, stream, &pool, nullptr, offset));
    offset += locations.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(locations.size()));
}
BENCHMARK(BM_ObfuscateCodes);

}  // namespace
}  // namespace tbf

TBF_BENCHMARK_JSON_MAIN("micro_mechanism");
