// End-to-end serving benchmark of the TBF serving stack.
//
//   serve_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--work-dir DIR]
//
// Builds the simulated-Chengdu trace from the seed (workload.h), publishes
// the HST framework (set-up, timed several times), then serves the trace
// repeatedly for S seconds:
//
//   --trace 0  end-to-end metrics. Each repetition runs the shipped entry
//              point, tbf::RunEventReplay: throughput from the process CPU
//              time of the call, dispatch latency from the replay's own
//              tbf_serve_dispatch_latency_ns histogram. Every timing is
//              scaled to reference speed (ReferenceKernel) and a figure is
//              the median over the run's repetitions.
//   --trace 1  per-layer metrics. Each repetition runs the layered loop
//              (serve_loop.h, the benchmark's re-drive of the replay's
//              sequential path) with spans on; the spans of all
//              repetitions give every layer's self time, and the last
//              repetition's spans are written to DIR/spans-<workload>.csv.
//              Stand-alone probes of the shard router, the availability
//              trie and the budget ledger on the same reports split the
//              engine's cost.
//
// Utility is the mean true assignment distance over the non-private
// greedy matcher's, averaged over eight traces derived from the seed.
//
// Every run checks its outputs: the replay's accounting identity, that the
// layered loop reproduces the replay's task outcomes exactly, that each
// assignment consumes an available worker, that the ledger's spend is the
// composed per-report epsilon, that repetitions agree, and that a durable
// run's journal scans clean. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tbf.h"
#include "geo/grid.h"
#include "geo/metric.h"
#include "hst/hst_index.h"
#include "privacy/budget.h"
#include "serve/replay.h"
#include "serve/shard_router.h"
#include "serve/wal.h"
#include "serve_loop.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of the process. Unlike wall time it leaves out the time the
// process waits for a CPU (other tenants of a shared host, hypervisor
// steal) or for the disk; the serving path runs on the calling thread.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// Collects check failures; the run is correct when none was recorded.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
      ok_ = false;
    }
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

bool SameOutcomes(const std::vector<tbf::TaskOutcome>& a,
                  const std::vector<tbf::TaskOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].task_id != b[i].task_id ||
        a[i].status.code() != b[i].status.code() || a[i].worker != b[i].worker ||
        a[i].reported_tree_distance != b[i].reported_tree_distance) {
      return false;
    }
  }
  return true;
}

// The replay's own accounting identity (serve/replay.h): every processed
// event lands in exactly one outcome bucket.
bool AccountingHolds(const tbf::ReplayReport& r) {
  return r.registered + r.assigned + r.unassigned + r.denied + r.shed +
             r.quarantined + r.departures ==
         r.processed_events;
}

// Pins the process to each CPU it may run on in turn, so that a
// repetition's timings and the reference passes that scale them run on
// one CPU, and a run samples every CPU.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
      }
    }
  }

  /// Moves to the next CPU (stays put when affinity is unknown).
  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// A failed operation aborts the run without a result line, so a printed
// result always has failed == 0.
void PrintResult(bool correct, uint64_t attempted,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

// Keeps probe results observable so the timed loops are not elided.
volatile uint64_t g_sink = 0;

// A fixed pass of benchmark-owned work, timed next to every measured
// repetition to read how fast its CPU runs at that moment. Other tenants
// of a shared host (a busy sibling hyperthread, a shared cache, memory
// bandwidth) slow a CPU by up to 40% for seconds to minutes, and CPU time
// does not leave that out. The pass mixes what the serving stack spends
// its time on: dependent loads over 16 MiB (index and registry lookups
// that miss the cache, as after a checkpoint), string-keyed hash-map
// updates (the engine's worker registry) and number formatting (the
// checkpoint's text codec). It calls no library code, so a change to the
// library cannot move it.
class ReferenceKernel {
 public:
  /// CPU seconds of one pass on the baseline host when other tenants
  /// disturb it least: the 5th percentile of 77 passes over ten minutes
  /// (perfbench/README.md, Baselines).
  static constexpr double kBaselineSeconds = 0.028;

  ReferenceKernel() : next_(kChaseSlots) {
    // One random cycle through all slots, so every load depends on the
    // previous one and the prefetcher cannot help.
    std::vector<uint32_t> order(kChaseSlots);
    for (uint32_t i = 0; i < kChaseSlots; ++i) order[i] = i;
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint32_t i = kChaseSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (uint32_t i = 0; i < kChaseSlots; ++i) {
      next_[order[i]] = order[(i + 1) % kChaseSlots];
    }
    for (int i = 0; i < kKeys; ++i) keys_.push_back("w" + std::to_string(i));
  }

  /// Runs one pass; returns its CPU seconds.
  double Pass() {
    const double start = CpuSeconds();
    uint32_t at = 0;
    for (int i = 0; i < 300000; ++i) at = next_[at];
    std::unordered_map<std::string, uint64_t> map;
    uint64_t h = at;
    for (int i = 0; i < 60000; ++i) {
      const std::string& key = keys_[(static_cast<uint64_t>(i) * 7919) % kKeys];
      if (i % 4 == 3) {
        map.erase(key);
      } else {
        map[key] += h;
      }
      h = h * 6364136223846793005ull + 1442695040888963407ull;
    }
    std::string text;
    char buf[32];
    for (int i = 0; i < 40000; ++i) {
      const auto r = std::to_chars(buf, buf + sizeof(buf),
                                   static_cast<double>(h >> 11) * 0x1.0p-53);
      text.append(buf, r.ptr);
      text.push_back(',');
      h = h * 6364136223846793005ull + 1442695040888963407ull;
    }
    g_sink = h + text.size() + map.size();
    return CpuSeconds() - start;
  }

 private:
  static constexpr uint32_t kChaseSlots = 1u << 22;
  static constexpr int kKeys = 8192;
  std::vector<uint32_t> next_;
  std::vector<std::string> keys_;
};

// Stand-alone layer probes over one stream of reports (ns per operation).
struct ProbeTimes {
  double route_ns = 0.0;
  double trie_ns = 0.0;
  double ledger_ns = 0.0;
};

ProbeTimes RunProbes(const tbf::TbfFramework& framework,
                     const tbf::EventTrace& trace,
                     const tbf::ReplayOptions& options) {
  // Reports in trace order: the replay forks report i at offset i, so one
  // whole-trace batch equals the per-window batches.
  std::vector<tbf::Point> locations;
  for (const tbf::TimedEvent& e : trace.events) {
    if (e.kind != tbf::EventKind::kWorkerDeparture) {
      locations.push_back(e.location);
    }
  }
  tbf::ThreadPool pool(1);
  const std::vector<tbf::LeafCode> codes = framework.ObfuscateCodes(
      locations, tbf::Rng(options.obfuscation_seed), &pool, nullptr, 0);
  const tbf::CompleteHst& tree = framework.tree();
  const tbf::LeafCodec& codec = *framework.codec();
  ProbeTimes probes;

  // Shard routing of every report.
  const tbf::ShardRouter router(tree.depth(), tree.arity(),
                                options.num_shards);
  uint64_t route_sink = 0;
  Clock::time_point start = Clock::now();
  for (tbf::LeafCode code : codes) {
    route_sink += static_cast<uint64_t>(router.ShardOf(code, codec));
  }
  probes.route_ns = SecondsSince(start) * 1e9 / static_cast<double>(codes.size());

  // Trie descent: the pool's insert / nearest / remove sequence on one
  // availability index, no locks, registry or budgets around it. Worker
  // ids are resolved to dense slots first, so the timed loop touches only
  // the index and two flat arrays.
  const size_t n = trace.events.size();
  std::vector<int> slot(n, -1);
  std::unordered_map<std::string, int> slot_of;
  for (size_t i = 0; i < n; ++i) {
    const tbf::TimedEvent& e = trace.events[i];
    if (e.kind != tbf::EventKind::kTaskArrival) {
      slot[i] = slot_of.try_emplace(e.id, static_cast<int>(slot_of.size()))
                    .first->second;
    }
  }
  tbf::HstAvailabilityIndex index(tree.depth(), tree.arity());
  std::vector<tbf::LeafCode> live_code(slot_of.size(), 0);
  std::vector<uint8_t> live(slot_of.size(), 0);
  uint64_t trie_ops = 0;
  size_t report = 0;
  start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const int s = slot[i];
    switch (trace.events[i].kind) {
      case tbf::EventKind::kWorkerArrival:
        if (live[s]) index.Remove(live_code[s], s);
        index.Insert(codes[report], s);
        live[s] = 1;
        live_code[s] = codes[report++];
        ++trie_ops;
        break;
      case tbf::EventKind::kWorkerDeparture:
        if (live[s]) {
          index.Remove(live_code[s], s);
          live[s] = 0;
          ++trie_ops;
        }
        break;
      case tbf::EventKind::kTaskArrival:
        if (auto nearest = index.Nearest(codes[report])) {
          index.Remove(live_code[nearest->first], nearest->first);
          live[nearest->first] = 0;
        }
        ++report;
        ++trie_ops;
        break;
    }
  }
  probes.trie_ns = SecondsSince(start) * 1e9 / static_cast<double>(trie_ops);

  // Ledger charge of every report, with the window rollovers.
  tbf::obs::MetricRegistry registry;
  tbf::EpochBudgetLedger ledger(*options.epoch_budget, std::nullopt,
                                &registry);
  const double t0 = trace.events.front().time;
  uint64_t charges = 0;
  start = Clock::now();
  for (const tbf::TimedEvent& e : trace.events) {
    if (e.kind == tbf::EventKind::kWorkerDeparture) continue;
    (void)ledger.BeginEpoch(static_cast<int64_t>(
        std::floor((e.time - t0) / options.epoch_seconds)));
    (void)ledger.Charge(e.id, framework.epsilon());
    ++charges;
  }
  probes.ledger_ns = SecondsSince(start) * 1e9 / static_cast<double>(charges);
  g_sink = route_sink;
  return probes;
}

int Run(const Args& args) {
  const std::optional<WorkloadSpec> spec = FindWorkload(args.workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  tbf::Result<tbf::EventTrace> built = BuildTrace(args.seed);
  if (!built.ok()) {
    std::fprintf(stderr, "trace: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const tbf::EventTrace trace = std::move(built).MoveValueUnsafe();

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  const std::string durable_dir =
      args.work_dir + "/durable-" + spec->name;

  // Set-up: publishing the framework (HST over the predefined grid plus
  // the mechanism tables). Grid, epsilon and seed are those of
  // examples/event_replay.cpp. The published tree is the same for every
  // seed, like a city's deployed tree; seeds vary traffic. Set-up is timed
  // in every measured repetition, so its samples span the whole run.
  constexpr int kGridSide = 32;
  constexpr uint64_t kPublishSeed = 7;
  constexpr int kSetupsPerRepetition = 4;
  const auto publish =
      [&](double* cpu_seconds) -> tbf::Result<tbf::TbfFramework> {
    const double start = CpuSeconds();
    tbf::Rng rng(kPublishSeed);
    TBF_ASSIGN_OR_RETURN(std::vector<tbf::Point> grid,
                         tbf::UniformGridPoints(trace.region, kGridSide));
    tbf::TbfOptions options;
    options.epsilon = 0.6;
    tbf::Result<tbf::TbfFramework> published = tbf::TbfFramework::Build(
        std::move(grid), tbf::EuclideanMetric(), &rng, options);
    *cpu_seconds = CpuSeconds() - start;
    return published;
  };
  double first_publish_seconds = 0.0;
  tbf::Result<tbf::TbfFramework> published = publish(&first_publish_seconds);
  if (!published.ok()) {
    std::fprintf(stderr, "publish: %s\n", published.status().ToString().c_str());
    return 1;
  }
  const tbf::TbfFramework framework = std::move(published).MoveValueUnsafe();

  tbf::ReplayOptions replay_options;
  replay_options.epoch_seconds = spec->epoch_seconds;
  replay_options.num_shards = spec->num_shards;
  replay_options.threads = 1;
  replay_options.epoch_budget =
      spec->epoch_budget_reports * framework.epsilon();
  if (spec->durable) {
    replay_options.durable_dir = durable_dir;
    replay_options.wal_fsync = tbf::WalFsyncPolicy::GroupCommit();
    replay_options.checkpoint_every_epochs = spec->checkpoint_every_epochs;
  }

  // Warm-up repetition, which also carries the checks that need the
  // whole output of both paths.
  Checks checks;
  std::filesystem::remove_all(durable_dir, ec);
  tbf::Result<tbf::ReplayReport> reference =
      tbf::RunEventReplay(framework, trace, replay_options);
  if (!reference.ok()) {
    std::fprintf(stderr, "replay: %s\n", reference.status().ToString().c_str());
    return 1;
  }
  if (spec->durable) {
    tbf::Result<tbf::WalScan> scan = tbf::ScanWalDir(durable_dir, false);
    checks.Expect(scan.ok() && scan->truncated_records == 0 &&
                      !scan->records.empty(),
                  "the durable replay's journal scans clean");
    checks.Expect(reference->checkpoints_written > 0,
                  "the durable replay wrote checkpoints");
  }
  std::filesystem::remove_all(durable_dir, ec);
  tbf::Result<LoopResult> reference_loop =
      RunLayeredLoop(framework, trace, replay_options, nullptr);
  if (!reference_loop.ok()) {
    std::fprintf(stderr, "layered loop: %s\n",
                 reference_loop.status().ToString().c_str());
    return 1;
  }
  checks.Expect(reference->events == trace.events.size() &&
                    reference->processed_events == trace.events.size(),
                "the replay processed every event");
  checks.Expect(AccountingHolds(*reference), "replay accounting identity");
  checks.Expect(reference->assigned > 0, "tasks were assigned");
  checks.Expect(SameOutcomes(reference->task_outcomes,
                             reference_loop->task_outcomes),
                "layered loop reproduces the replay's task outcomes");
  checks.Expect(reference_loop->assigned == reference->assigned &&
                    reference_loop->registered == reference->registered &&
                    reference_loop->denied == reference->denied,
                "layered loop reproduces the replay's counters");
  const LoopResult& ref = *reference_loop;
  checks.Expect(ref.charges == ref.registered + ref.assigned + ref.unassigned,
                "one ledger charge per admitted report");
  checks.Expect(std::fabs(ref.epsilon_spent -
                          static_cast<double>(ref.charges) *
                              framework.epsilon()) <=
                    1e-9 * std::max(1.0, ref.epsilon_spent),
                "ledger spend is the composed per-report epsilon");
  checks.Expect(std::fabs(reference->epsilon_spent - ref.epsilon_spent) <=
                    1e-9 * std::max(1.0, ref.epsilon_spent),
                "replay and layered loop spend the same epsilon");

  // Utility against the non-private greedy matcher, averaged over the timed
  // trace and seven more traces derived from the seed: one trace's ratio
  // moves by a few percent from seed to seed (pool depletion is
  // path-dependent), the mean of eight about a third as much. Durability
  // does not change outcomes, so the extra traces are served in memory.
  constexpr int kQualityTraces = 8;
  double ratio_sum = 0.0;
  for (int j = 0; j < kQualityTraces; ++j) {
    double served_distance = reference_loop->mean_true_distance;
    double greedy_distance = GreedyMeanDistance(trace);
    if (j > 0) {
      tbf::Result<tbf::EventTrace> other = BuildTrace(
          tbf::Rng(args.seed).Split(static_cast<uint64_t>(j)).NextU64());
      if (!other.ok()) return 1;
      tbf::ReplayOptions in_memory = replay_options;
      in_memory.durable_dir.clear();
      tbf::Result<LoopResult> served =
          RunLayeredLoop(framework, *other, in_memory, nullptr);
      if (!served.ok()) {
        std::fprintf(stderr, "layered loop: %s\n",
                     served.status().ToString().c_str());
        return 1;
      }
      served_distance = served->mean_true_distance;
      greedy_distance = GreedyMeanDistance(*other);
    }
    checks.Expect(served_distance > 0.0 && greedy_distance > 0.0,
                  "both matchers assigned tasks");
    ratio_sum += served_distance / greedy_distance;
  }
  const double distance_ratio = ratio_sum / kQualityTraces;

  // Measured repetitions. Each runs on the next CPU, between two reference
  // passes; their mean scales the repetition's timings to reference speed
  // (ReferenceKernel::kBaselineSeconds per pass). The durable directory
  // the previous repetition left behind is cleared before the timer starts.
  CpuRotation cpus;
  ReferenceKernel kernel;
  uint64_t attempted = 0;
  std::vector<double> pass_seconds;
  std::vector<double> setup_seconds;
  std::vector<double> events_per_cpu_second;
  std::vector<double> dispatch_p50_us;
  std::vector<double> dispatch_p99_us;
  std::array<SpanLog::LayerTotals, kLayerCount> layers{};
  SpanLog last_spans;
  std::optional<LoopResult> last_loop;
  double traced_seconds = 0.0;
  uint64_t traced_events = 0;
  int reps = 0;
  const Clock::time_point measure_start = Clock::now();
  while (reps < 2 || SecondsSince(measure_start) < args.seconds) {
    ++reps;
    cpus.Next();
    // Hand freed heap pages back to the kernel, so that each repetition
    // runs on freshly placed memory rather than on the pages (and their
    // cache-set layout) the first repetition happened to get.
    malloc_trim(0);
    std::filesystem::remove_all(durable_dir, ec);
    if (!args.trace) {
      const double pass_before = kernel.Pass();
      double setup[kSetupsPerRepetition];
      for (double& seconds : setup) {
        if (!publish(&seconds).ok()) return 1;
      }
      const double start = CpuSeconds();
      tbf::Result<tbf::ReplayReport> report =
          tbf::RunEventReplay(framework, trace, replay_options);
      const double seconds = CpuSeconds() - start;
      if (!report.ok()) {
        std::fprintf(stderr, "replay: %s\n", report.status().ToString().c_str());
        return 1;
      }
      const double pass = 0.5 * (pass_before + kernel.Pass());
      const double scale = ReferenceKernel::kBaselineSeconds / pass;
      pass_seconds.push_back(pass);
      for (double s : setup) setup_seconds.push_back(s * scale);
      events_per_cpu_second.push_back(static_cast<double>(report->events) /
                                      (seconds * scale));
      dispatch_p50_us.push_back(report->dispatch_p50_ns / 1e3 * scale);
      dispatch_p99_us.push_back(report->dispatch_p99_ns / 1e3 * scale);
      attempted += report->events;
      checks.Expect(report->assigned == reference->assigned &&
                        report->denied == reference->denied &&
                        report->dispatch_p50_ns > 0.0,
                    "replay repetitions agree");
      continue;
    }
    SpanLog spans;
    const Clock::time_point start = Clock::now();
    tbf::Result<LoopResult> loop =
        RunLayeredLoop(framework, trace, replay_options, &spans);
    traced_seconds += SecondsSince(start);
    if (!loop.ok()) {
      std::fprintf(stderr, "layered loop: %s\n",
                   loop.status().ToString().c_str());
      return 1;
    }
    attempted += loop->dispatched_events;
    traced_events += loop->dispatched_events;
    checks.Expect(loop->assigned == reference_loop->assigned &&
                      loop->denied == reference_loop->denied,
                  "layered loop repetitions agree");
    const auto totals = spans.Aggregate();
    for (size_t l = 0; l < kLayerCount; ++l) {
      layers[l].calls += totals[l].calls;
      layers[l].total_ns += totals[l].total_ns;
      layers[l].self_ns += totals[l].self_ns;
    }
    last_spans = std::move(spans);
    last_loop = std::move(loop).MoveValueUnsafe();
  }
  std::filesystem::remove_all(durable_dir, ec);

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::printf("workload %s seed %llu: %zu events, %d repetitions; median "
                "reference pass %.2f ms (%.2f at reference speed); at "
                "reference speed, median dispatch p99 %.3f us\n",
                spec->name.c_str(), static_cast<unsigned long long>(args.seed),
                trace.events.size(), reps, Median(pass_seconds) * 1e3,
                ReferenceKernel::kBaselineSeconds * 1e3,
                Median(dispatch_p99_us));
    metrics.push_back({"events_per_cpu_s", Median(events_per_cpu_second), "1/s"});
    metrics.push_back({"dispatch_p50_us", Median(dispatch_p50_us), "us"});
    metrics.push_back({"distance_ratio", distance_ratio, "ratio"});
    metrics.push_back({"setup_s", Median(setup_seconds), "s"});
  } else {
    const ProbeTimes probes = RunProbes(framework, trace, replay_options);
    const double run_ns =
        static_cast<double>(layers[static_cast<size_t>(Layer::kRun)].total_ns);
    const auto self = [&](Layer l) {
      return static_cast<double>(layers[static_cast<size_t>(l)].self_ns);
    };
    const auto per_call = [&](Layer l) {
      const uint64_t calls = layers[static_cast<size_t>(l)].calls;
      return calls ? self(l) / static_cast<double>(calls) : 0.0;
    };
    const double loop_self =
        self(Layer::kRun) + self(Layer::kWindow) + self(Layer::kEvent);
    const double reports =
        static_cast<double>(last_loop->reports) * reps;
    const double events =
        static_cast<double>(last_loop->dispatched_events) * reps;
    const tbf::obs::MetricsSnapshot& m = last_loop->metrics;
    const double appends = m.CounterValue("tbf_wal_appends_total");
    const double fsyncs = m.CounterValue("tbf_wal_fsyncs_total");

    std::printf("per-layer self time, workload %s seed %llu, %d traced "
                "repetitions of %zu events\n",
                spec->name.c_str(), static_cast<unsigned long long>(args.seed),
                reps, trace.events.size());
    std::printf("%-18s %10s %12s %8s %12s\n", "layer", "calls", "self ms",
                "share %", "ns/call");
    for (size_t l = 0; l < kLayerCount; ++l) {
      const Layer layer = static_cast<Layer>(l);
      std::printf("%-18s %10llu %12.2f %8.2f %12.1f\n", LayerName(layer),
                  static_cast<unsigned long long>(layers[l].calls),
                  self(layer) / 1e6, 100.0 * self(layer) / run_ns,
                  per_call(layer));
    }
    std::printf("probes (ns/op): route %.1f, trie %.1f, ledger %.1f\n",
                probes.route_ns, probes.trie_ns, probes.ledger_ns);
    const std::string csv = args.work_dir + "/spans-" + spec->name + ".csv";
    checks.Expect(last_spans.WriteCsv(csv).ok(), "span log written");

    const auto share = [&](double ns) { return 100.0 * ns / run_ns; };
    metrics.push_back({"obfuscate_share_pct", share(self(Layer::kObfuscate)), "%"});
    metrics.push_back({"engine_share_pct", share(self(Layer::kEngine)), "%"});
    metrics.push_back({"journal_share_pct", share(self(Layer::kJournal)), "%"});
    metrics.push_back({"checkpoint_share_pct",
                       share(self(Layer::kCheckpoint) +
                             self(Layer::kCheckpointExport) +
                             self(Layer::kCheckpointWrite) +
                             self(Layer::kJournalRotate)),
                       "%"});
    metrics.push_back({"epoch_roll_share_pct", share(self(Layer::kEpochRoll)), "%"});
    metrics.push_back({"loop_share_pct", share(loop_self), "%"});
    metrics.push_back({"obfuscate_ns_per_report",
                       reports ? self(Layer::kObfuscate) / reports : 0.0, "ns"});
    metrics.push_back({"engine_ns_per_event", per_call(Layer::kEngine), "ns"});
    metrics.push_back({"journal_ns_per_record", per_call(Layer::kJournal), "ns"});
    metrics.push_back({"checkpoint_export_ms",
                       per_call(Layer::kCheckpointExport) / 1e6, "ms"});
    metrics.push_back({"checkpoint_write_ms",
                       per_call(Layer::kCheckpointWrite) / 1e6, "ms"});
    metrics.push_back({"journal_rotate_ms",
                       per_call(Layer::kJournalRotate) / 1e6, "ms"});
    metrics.push_back({"loop_ns_per_event", events ? loop_self / events : 0.0,
                       "ns"});
    metrics.push_back({"traced_events_per_s",
                       static_cast<double>(traced_events) / traced_seconds,
                       "1/s"});
    metrics.push_back({"journal_fsyncs", fsyncs, "count"});
    metrics.push_back({"journal_records_per_fsync",
                       fsyncs > 0 ? appends / fsyncs : 0.0, "count"});
    metrics.push_back({"journal_bytes_per_event",
                       m.CounterValue("tbf_wal_bytes_total") /
                           static_cast<double>(last_loop->dispatched_events),
                       "bytes"});
    metrics.push_back({"checkpoints", static_cast<double>(last_loop->checkpoints),
                       "count"});
    metrics.push_back({"checkpoint_bytes",
                       last_loop->checkpoints
                           ? static_cast<double>(last_loop->checkpoint_bytes) /
                                 static_cast<double>(last_loop->checkpoints)
                           : 0.0,
                       "bytes"});
    metrics.push_back({"crossshard_fanouts",
                       m.CounterValue("tbf_serve_crossshard_fanout_total"),
                       "count"});
    metrics.push_back({"probe_route_ns", probes.route_ns, "ns"});
    metrics.push_back({"probe_trie_ns", probes.trie_ns, "ns"});
    metrics.push_back({"probe_ledger_ns", probes.ledger_ns, "ns"});
  }
  PrintResult(checks.ok(), attempted, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
