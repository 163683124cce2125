// Microbenchmarks of the flight-recorder metrics core (google-benchmark):
// per-op cost of Counter::Add / Histogram::Record / ScopedTimer, the cost
// of a Snapshot, and the acceptance gate of the whole subsystem — a full
// serve replay measured with metrics on vs off must stay within 2%
// (overhead_percent in BENCH_micro_metrics.json).
//
// The hot-path rows also audit the allocator: mutations on registered
// handles must never touch the heap (the operator-new replacement below
// counts every allocation in the process; audits read deltas).

#include <benchmark/benchmark.h>

#include "bench/json_main.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "core/tbf.h"
#include "geo/grid.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "serve/replay.h"
#include "workload/synthetic.h"

// Global allocation counter feeding the zero-allocation assertions below
// (same pattern as bench/micro_mechanism.cc). GCC's mismatch checker pairs
// the replacement delete with the *default* new and warns spuriously — new
// and delete are replaced together here.
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

// Runs `op` 10k times and skips the benchmark when the heap was touched.
// Registration (FindOrCreate*) happens before the audit on purpose — only
// mutations on resolved handles carry the zero-alloc contract.
template <typename Op>
bool AuditZeroAlloc(benchmark::State& state, Op&& op) {
  const size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) op();
  const size_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["audit_allocs_per_10k"] = static_cast<double>(allocs);
  if (allocs != 0) {
    state.SkipWithError("metrics hot path allocated");
    return false;
  }
  return true;
}

void BM_CounterAdd(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::Counter* counter = registry.FindOrCreateCounter("bench_counter_total");
  if (!AuditZeroAlloc(state, [&] { counter->Add(1); })) return;
  for (auto _ : state) {
    counter->Add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

// The runtime off switch: one relaxed load + branch per call.
void BM_CounterAddDisabled(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::Counter* counter = registry.FindOrCreateCounter("bench_counter_total");
  obs::SetMetricsEnabled(false);
  for (auto _ : state) {
    counter->Add(1);
  }
  obs::SetMetricsEnabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAddDisabled);

void BM_HistogramRecord(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::Histogram* hist = registry.FindOrCreateHistogram("bench_latency_ns");
  uint64_t value = 1;
  if (!AuditZeroAlloc(state, [&] { hist->Record(value++); })) return;
  for (auto _ : state) {
    hist->Record(value++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// Two steady_clock reads + one Record — the full cost ScopedTimer adds to
// an instrumented scope.
void BM_ScopedTimerHistogram(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::Histogram* hist = registry.FindOrCreateHistogram("bench_scope_ns");
  if (!AuditZeroAlloc(state, [&] { obs::ScopedTimer timer(hist); })) return;
  for (auto _ : state) {
    obs::ScopedTimer timer(hist);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedTimerHistogram);

// Snapshot is the cold path: it allocates by design (merged plain-data
// copy) — this row prices it per registered metric.
void BM_Snapshot(benchmark::State& state) {
  obs::MetricRegistry registry;
  const int metrics = static_cast<int>(state.range(0));
  for (int i = 0; i < metrics; ++i) {
    registry.FindOrCreateCounter("bench_counter_" + std::to_string(i))->Add(1);
  }
  registry.FindOrCreateHistogram("bench_latency_ns")->Record(1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.Snapshot());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["metrics"] = metrics;
}
BENCHMARK(BM_Snapshot)->Arg(16)->Arg(64);

// ------------------------ end-to-end overhead gate ------------------------

struct ServeWorkload {
  TbfFramework framework;
  EventTrace trace;
};

const ServeWorkload& GetWorkload() {
  static ServeWorkload* cached = [] {
    Rng rng(3);
    auto grid = UniformGridPoints(BBox::Square(200), 32);
    TbfOptions options;
    options.epsilon = 0.6;
    auto framework = TbfFramework::Build(std::move(grid).MoveValueUnsafe(),
                                         EuclideanMetric(), &rng, options);
    SyntheticEventConfig config;
    config.base.num_workers = 10000;
    config.base.num_tasks = 5000;
    config.base.seed = 17;
    config.horizon_seconds = 600.0;
    config.departure_probability = 0.05;
    auto trace = GenerateEventTrace(config);
    return new ServeWorkload{std::move(framework).MoveValueUnsafe(),
                             std::move(trace).MoveValueUnsafe()};
  }();
  return *cached;
}

double ReplayEventsPerSecond(const ServeWorkload& workload, bool metrics_on,
                             benchmark::State& state) {
  obs::SetMetricsEnabled(metrics_on);
  ReplayOptions options;
  options.epoch_seconds = 30.0;
  options.num_shards = 1;
  options.threads = 1;
  auto report = RunEventReplay(workload.framework, workload.trace, options);
  obs::SetMetricsEnabled(true);
  if (!report.ok()) {
    state.SkipWithError(report.status().ToString().c_str());
    return -1.0;
  }
  return report->events_per_second;
}

// The acceptance gate: the same 10k-worker replay with instrumentation
// live vs runtime-disabled. Best-of-3 interleaved runs on each side damp
// scheduler noise; overhead_percent must stay under 2.
void BM_MetricsOverhead(benchmark::State& state) {
  const ServeWorkload& workload = GetWorkload();
  ReplayEventsPerSecond(workload, true, state);  // warm caches and traces
  double best_on = 0.0;
  double best_off = 0.0;
  for (int round = 0; round < 3; ++round) {
    best_off = std::max(best_off, ReplayEventsPerSecond(workload, false, state));
    best_on = std::max(best_on, ReplayEventsPerSecond(workload, true, state));
  }
  if (best_on < 0.0 || best_off < 0.0) return;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEventsPerSecond(workload, true, state));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.trace.events.size()));
  state.counters["events_per_second_on"] = best_on;
  state.counters["events_per_second_off"] = best_off;
  state.counters["overhead_percent"] =
      best_off > 0.0 ? 100.0 * (best_off - best_on) / best_off : 0.0;
}
BENCHMARK(BM_MetricsOverhead)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace tbf

TBF_BENCHMARK_JSON_MAIN("micro_metrics");
