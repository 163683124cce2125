// End-to-end serving throughput (google-benchmark): replays a timestamped
// synthetic worker/task stream through the sharded serving engine and
// reports events/sec (items_per_second in the JSON). One iteration = one
// full replay: per-epoch batched obfuscation + dispatch into a fresh
// ShardedTbfServer.
//
// The shards axis is the acceptance gate of the sharded engine: 1 shard
// runs the exact sequential baseline (threads=1, event-order dispatch
// into one index), K > 1 shards run K dispatch lanes over a
// K-wide pool. Obfuscation and dispatch both parallelize, so on a machine
// with >= 4 cores the 8-shard row should clear 2x the 1-shard row at 100k
// workers; on a single-core machine the rows collapse to ~1x (the engine
// adds locking but no parallel work can happen). Emits
// BENCH_serve_throughput.json (see json_main.h).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "bench/json_main.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "hst/snapshot.h"
#include "serve/replay.h"
#include "workload/synthetic.h"

namespace tbf {
namespace {

struct ServeWorkload {
  const TbfFramework& framework;  // built once, never freed
  const EventTrace& trace;        // one per worker count, never freed
};

// Framework + trace are shared across iterations, shard counts and
// samplers: the bench measures serving, not setup. The framework is built
// once and the trace once per worker count; the sampler axis (0 = walk,
// 2 = timing-oblivious) is a replay option.
ServeWorkload GetWorkload(int workers) {
  static const TbfFramework* framework = [] {
    Rng rng(3);
    auto grid = UniformGridPoints(BBox::Square(200), 32);
    TbfOptions options;
    options.epsilon = 0.6;
    auto built = TbfFramework::Build(std::move(grid).MoveValueUnsafe(),
                                     EuclideanMetric(), &rng, options);
    return new TbfFramework(std::move(built).MoveValueUnsafe());
  }();
  static std::map<int, EventTrace>* traces = new std::map<int, EventTrace>;
  auto it = traces->find(workers);
  if (it == traces->end()) {
    SyntheticEventConfig config;
    config.base.num_workers = workers;
    config.base.num_tasks = workers / 2;
    config.base.seed = 17;
    config.horizon_seconds = 600.0;
    config.departure_probability = 0.05;
    auto trace = GenerateEventTrace(config);
    it = traces->emplace(workers, std::move(trace).MoveValueUnsafe()).first;
  }
  return ServeWorkload{*framework, it->second};
}

void BM_ServeReplay(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const SamplerKind sampler =
      state.range(2) == 0 ? SamplerKind::kWalk : SamplerKind::kOblivious;
  const ServeWorkload workload = GetWorkload(workers);

  ReplayOptions options;
  options.epoch_seconds = 30.0;
  options.num_shards = shards;
  options.threads = shards;  // one lane per shard
  options.parallel_dispatch = shards > 1;
  options.sampler = sampler;
  size_t assigned = 0;
  size_t unassigned = 0;
  size_t denied = 0;
  size_t epochs = 0;
  double mean_tree_distance = 0.0;
  for (auto _ : state) {
    auto report = RunEventReplay(workload.framework, workload.trace, options);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    assigned = report->assigned;
    unassigned = report->unassigned;
    denied = report->denied;
    epochs = report->epochs;
    double distance_sum = 0.0;
    size_t distance_count = 0;
    for (const TaskOutcome& outcome : report->task_outcomes) {
      if (outcome.worker) {
        distance_sum += outcome.reported_tree_distance;
        ++distance_count;
      }
    }
    mean_tree_distance =
        distance_count > 0 ? distance_sum / static_cast<double>(distance_count)
                           : 0.0;
    benchmark::DoNotOptimize(report->events_per_second);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.trace.events.size()));
  state.counters["shards"] = shards;
  state.counters["assigned"] = static_cast<double>(assigned);
  state.counters["unassigned"] = static_cast<double>(unassigned);
  state.counters["denied"] = static_cast<double>(denied);
  // Mean reported tree distance over assigned tasks: the quality axis —
  // it must not move when shards/sampler/metrics knobs change.
  state.counters["mean_tree_distance"] = mean_tree_distance;
  state.counters["epochs"] = static_cast<double>(epochs);
  // Comparison fields: the serve path dispatches on packed LeafCodes end to
  // end (code_native = 1 distinguishes this JSON from pre-fast-path
  // artifacts); sampler 0 = Bernoulli walk, 2 = timing-oblivious
  // constant-shape schedule (1 was a retired sampler; the axis keeps the
  // oblivious rows' names).
  state.counters["code_native"] =
      workload.framework.codec() != nullptr ? 1.0 : 0.0;
  state.counters["sampler"] = static_cast<double>(state.range(2));
}

// Republish under load: the same replay with three live tree swaps
// (bit-identical snapshot copies) spread across the run. The delta
// against the matching BM_ServeReplay row is the whole cost of
// zero-downtime republication — re-keying every live worker and
// rebuilding the shard indexes three times, with zero dropped events
// (assigned/unassigned must equal the swap-free row).
void BM_ServeReplayWithRepublish(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const ServeWorkload workload = GetWorkload(workers);

  auto copy = ParseHstSnapshot(SerializeHstSnapshot(workload.framework.tree()));
  if (!copy.ok()) {
    state.SkipWithError("snapshot round-trip failed");
    return;
  }
  auto tree = std::make_shared<const CompleteHst>(
      std::move(copy).MoveValueUnsafe());

  ReplayOptions options;
  options.epoch_seconds = 30.0;
  options.num_shards = shards;
  options.threads = shards;
  options.parallel_dispatch = shards > 1;
  options.republishes.push_back({5, tree});
  options.republishes.push_back({10, tree});
  options.republishes.push_back({15, tree});
  size_t assigned = 0;
  size_t unassigned = 0;
  uint64_t republishes = 0;
  for (auto _ : state) {
    auto report = RunEventReplay(workload.framework, workload.trace, options);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    assigned = report->assigned;
    unassigned = report->unassigned;
    republishes = report->republishes;
    benchmark::DoNotOptimize(report->events_per_second);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.trace.events.size()));
  state.counters["shards"] = shards;
  state.counters["assigned"] = static_cast<double>(assigned);
  state.counters["unassigned"] = static_cast<double>(unassigned);
  state.counters["republishes"] = static_cast<double>(republishes);
}

// Durability under load: the same sequential replay with the write-ahead
// journal off / group-commit / every-record. The wal_policy counter keys
// the rows; every row (including the WAL-off reference) checkpoints at
// the same cadence, so the events/sec delta against wal_policy = 0 is
// the whole journaling overhead. Group commit (the shipped default) must
// stay within 15% of the WAL-off row at the 100k gate — every-record
// buys per-record power-loss durability and is expected to cost real
// throughput on fsync-bound disks, so it only runs at the 10k row.
void BM_ServeReplayDurable(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int policy = static_cast<int>(state.range(1));
  const ServeWorkload workload = GetWorkload(workers);

  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/tbf_bench_wal";
  ReplayOptions options;
  options.epoch_seconds = 30.0;
  options.num_shards = 1;  // the journal is an ordered log: sequential
  options.checkpoint_every_epochs = 4;
  if (policy > 0) {
    options.durable_dir = dir;
    options.wal_fsync = policy == 1 ? WalFsyncPolicy::GroupCommit()
                                    : WalFsyncPolicy::EveryRecord();
  } else {
    // The WAL-off reference writes the legacy single-file checkpoint at
    // the same cadence, so every row pays the same snapshot cost and the
    // delta against it is the journal alone — exactly the overhead the
    // group-commit gate bounds.
    options.checkpoint_path = dir + ".legacy.ckpt";
  }
  size_t assigned = 0;
  uint64_t checkpoints = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);  // each iteration is a fresh run
    std::filesystem::remove(dir + ".legacy.ckpt");
    std::filesystem::remove(dir + ".legacy.ckpt.outcomes");
    state.ResumeTiming();
    auto report = RunEventReplay(workload.framework, workload.trace, options);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    assigned = report->assigned;
    checkpoints = report->checkpoints_written;
    benchmark::DoNotOptimize(report->events_per_second);
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove(dir + ".legacy.ckpt");
  std::filesystem::remove(dir + ".legacy.ckpt.outcomes");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.trace.events.size()));
  // 0 = WAL off (legacy checkpoint only), 1 = group commit (default
  // policy), 2 = every-record.
  state.counters["wal_policy"] = policy;
  state.counters["assigned"] = static_cast<double>(assigned);
  state.counters["checkpoints"] = static_cast<double>(checkpoints);
}

BENCHMARK(BM_ServeReplayDurable)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({100000, 0})
    ->Args({100000, 1});

BENCHMARK(BM_ServeReplayWithRepublish)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({10000, 1})
    ->Args({100000, 4});

BENCHMARK(BM_ServeReplay)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()  // items_per_second from wall clock, not main-thread CPU
    ->Args({10000, 1, 0})
    ->Args({10000, 8, 0})
    ->Args({100000, 1, 0})
    ->Args({100000, 2, 0})
    ->Args({100000, 4, 0})
    ->Args({100000, 8, 0})
    // Walk vs oblivious, end to end at the 100k gate.
    ->Args({100000, 1, 2})
    ->Args({100000, 8, 2});

}  // namespace
}  // namespace tbf

TBF_BENCHMARK_JSON_MAIN("serve_throughput");
