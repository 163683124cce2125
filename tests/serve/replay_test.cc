#include "serve/replay.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "geo/grid.h"
#include "serve/fixtures.h"
#include "serve/reference_server.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

namespace tbf {
namespace {

EventTrace SmallTrace(int workers = 80, int tasks = 40,
                      double departure_probability = 0.1,
                      uint64_t seed = 5) {
  SyntheticEventConfig config;
  config.base.num_workers = workers;
  config.base.num_tasks = tasks;
  config.base.seed = seed;
  config.horizon_seconds = 600.0;
  config.departure_probability = departure_probability;
  auto trace = GenerateEventTrace(config);
  EXPECT_TRUE(trace.ok());
  return std::move(trace).MoveValueUnsafe();
}

TEST(ReplayTest, ValidatesInput) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();
  ReplayOptions options;
  options.epoch_seconds = 0.0;
  EXPECT_FALSE(RunEventReplay(framework, trace, options).ok());
  options.epoch_seconds = std::nan("");
  EXPECT_FALSE(RunEventReplay(framework, trace, options).ok());
  options.epoch_seconds = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(RunEventReplay(framework, trace, options).ok());

  EventTrace unsorted = trace;
  std::swap(unsorted.events.front().time, unsorted.events.back().time);
  EXPECT_FALSE(RunEventReplay(framework, unsorted, ReplayOptions{}).ok());

  EventTrace empty;
  empty.region = trace.region;
  auto report = RunEventReplay(framework, empty, ReplayOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->events, 0u);
  EXPECT_EQ(report->epochs, 0u);
}

// The replay loop applied sequentially must reproduce, event for event,
// what the hand-driven reference model sees when fed the same obfuscated
// reports: the loop only adds epoching and sharding around the same online
// process.
TEST(ReplayTest, SequentialReplayMatchesDirectServerDrive) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(100, 60, 0.15);

  ReplayOptions options;
  options.epoch_seconds = 45.0;
  options.num_shards = 4;
  options.threads = 1;
  options.parallel_dispatch = false;
  options.obfuscation_seed = 77;
  auto report = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(report.ok());

  // Hand-drive the reference model with the identical report stream,
  // drawn by the path-based Alg. 3 reference on each report's fork.
  ReferenceServer model(framework.tree_ptr());
  const CompleteHst& tree = framework.tree();
  const Rng stream(options.obfuscation_seed);
  std::vector<LeafPath> reports;
  for (const TimedEvent& event : trace.events) {
    if (event.kind != EventKind::kWorkerDeparture) {
      Rng item_rng = stream.ForkAt(reports.size());
      reports.push_back(framework.mechanism().Obfuscate(
          tree.leaf_of_point(tree.MapToNearestPoint(event.location)),
          &item_rng));
    }
  }

  size_t next_report = 0;
  size_t next_task = 0;
  size_t assigned = 0;
  for (const TimedEvent& event : trace.events) {
    switch (event.kind) {
      case EventKind::kWorkerArrival:
        ASSERT_TRUE(
            model.RegisterWorker(event.id, reports[next_report++]).ok());
        break;
      case EventKind::kTaskArrival: {
        auto dispatched = model.SubmitTask(event.id, reports[next_report++]);
        ASSERT_TRUE(dispatched.ok());
        const TaskOutcome& outcome = report->task_outcomes[next_task++];
        EXPECT_EQ(outcome.task_id, event.id);
        EXPECT_TRUE(outcome.status.ok());
        ASSERT_EQ(outcome.worker, dispatched->worker) << event.id;
        EXPECT_DOUBLE_EQ(outcome.reported_tree_distance,
                         dispatched->reported_tree_distance);
        if (dispatched->worker) ++assigned;
        break;
      }
      case EventKind::kWorkerDeparture:
        model.UnregisterWorker(event.id);  // NotFound == expected churn
        break;
    }
  }
  EXPECT_EQ(next_task, report->task_outcomes.size());
  EXPECT_EQ(report->assigned, assigned);
  EXPECT_EQ(report->available_workers_end, model.available_workers());
}

TEST(ReplayTest, OutcomeIsIndependentOfEpochLength) {
  // Obfuscation forks at the global arrival index and sequential dispatch
  // ignores window boundaries, so (without budgets) the epoch length must
  // not change a single assignment.
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(90, 50, 0.1, 9);
  ReplayOptions coarse;
  coarse.epoch_seconds = 1e9;  // whole trace in one epoch
  coarse.num_shards = 2;
  ReplayOptions fine = coarse;
  fine.epoch_seconds = 10.0;
  auto a = RunEventReplay(framework, trace, coarse);
  auto b = RunEventReplay(framework, trace, fine);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b->epochs, a->epochs);
  ASSERT_EQ(a->task_outcomes.size(), b->task_outcomes.size());
  for (size_t t = 0; t < a->task_outcomes.size(); ++t) {
    EXPECT_EQ(a->task_outcomes[t].worker, b->task_outcomes[t].worker) << t;
  }
}

TEST(ReplayTest, EpochStatsAddUp) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(70, 35, 0.2, 13);
  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 3;
  auto report = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->events, trace.events.size());
  EXPECT_EQ(report->worker_arrivals + report->task_arrivals +
                report->departures,
            report->events);
  size_t workers = 0, tasks = 0, departures = 0, assigned = 0;
  int64_t last_epoch = -1;
  for (const EpochStats& stats : report->per_epoch) {
    EXPECT_GT(stats.epoch, last_epoch);  // strictly increasing windows
    last_epoch = stats.epoch;
    workers += stats.worker_arrivals;
    tasks += stats.task_arrivals;
    departures += stats.departures;
    assigned += stats.assigned;
  }
  EXPECT_EQ(workers, report->worker_arrivals);
  EXPECT_EQ(tasks, report->task_arrivals);
  EXPECT_EQ(departures, report->departures);
  EXPECT_EQ(assigned, report->assigned);
  EXPECT_EQ(report->assigned + report->unassigned + report->denied,
            report->task_arrivals);
  EXPECT_GT(report->events_per_second, 0.0);
}

// A hand-made trace of (time, kind, id, location) events.
EventTrace TraceOf(std::vector<TimedEvent> events) {
  EventTrace trace;
  trace.region = BBox::Square(200);
  trace.events = std::move(events);
  return trace;
}

// A forced refusal ("replay.budget") is a denial whatever status the plan
// gives it, for a worker arrival exactly as for a task: it refuses the
// report the way a budget cap would, not the way admission control does.
TEST(ReplayTest, ForcedRefusalIsDeniedForWorkersAndTasks) {
  TbfFramework framework = BuildFramework();
  const EventTrace trace =
      TraceOf({{0.0, EventKind::kWorkerArrival, "w0", {10, 10}},
               {1.0, EventKind::kWorkerArrival, "w1", {20, 20}},
               {2.0, EventKind::kTaskArrival, "t0", {15, 15}}});
  fault::FaultPlan plan;
  for (const uint64_t event : {0u, 2u}) {
    fault::FaultSpec refusal;
    refusal.site = "replay.budget";
    refusal.after = event;
    refusal.code = StatusCode::kResourceExhausted;
    plan.faults.push_back(refusal);
  }
  fault::ScopedFaultPlan armed(plan);
  if (!armed.armed()) GTEST_SKIP() << "fault injection compiled out";

  auto report = RunEventReplay(framework, trace, ReplayOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->registered, 1u);
  EXPECT_EQ(report->denied, 2u);
  EXPECT_EQ(report->shed, 0u);
  ASSERT_EQ(report->per_epoch.size(), 1u);
  EXPECT_EQ(report->per_epoch[0].denied, 2u);
  EXPECT_EQ(report->per_epoch[0].shed, 0u);
  ASSERT_EQ(report->task_outcomes.size(), 1u);
  EXPECT_EQ(report->task_outcomes[0].status.code(),
            StatusCode::kResourceExhausted);
}

// task_outcomes holds one row per task the loop dispatched: a task that
// never reaches dispatch (quarantined, or dropped by the stream) leaves
// no row, so no blank row trails the real ones.
TEST(ReplayTest, UndispatchedTasksLeaveNoRow) {
  TbfFramework framework = BuildFramework();
  const EventTrace trace =
      TraceOf({{0.0, EventKind::kWorkerArrival, "w0", {10, 10}},
               {1.0, EventKind::kTaskArrival, "t0", {15, 15}},
               {2.0, EventKind::kTaskArrival, "t1", {std::nan(""), 15}},
               {3.0, EventKind::kTaskArrival, "t2", {150, 150}}});
  ReplayOptions options;
  options.poison_policy = PoisonPolicy::kQuarantine;
  const auto task_ids = [](const ReplayReport& report) {
    std::vector<std::string> ids;
    for (const TaskOutcome& row : report.task_outcomes) {
      ids.push_back(row.task_id);
    }
    return ids;
  };

  auto quarantined = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
  EXPECT_EQ(quarantined->quarantined, 1u);
  EXPECT_EQ(task_ids(*quarantined), (std::vector<std::string>{"t0", "t2"}));
  EXPECT_EQ(quarantined->assigned + quarantined->unassigned, 2u);

  fault::FaultSpec drop;
  drop.site = "replay.event";
  drop.kind = fault::FaultKind::kDrop;
  drop.after = 1;  // t0
  fault::ScopedFaultPlan armed(fault::FaultPlan{{drop}});
  if (!armed.armed()) GTEST_SKIP() << "fault injection compiled out";
  auto dropped = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(dropped->faults_dropped, 1u);
  EXPECT_EQ(task_ids(*dropped), (std::vector<std::string>{"t2"}));
}

TEST(ReplayTest, ParallelDispatchKeepsMatchingValid) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(400, 250, 0.1, 17);
  ReplayOptions options;
  options.epoch_seconds = 30.0;
  options.num_shards = 8;
  options.threads = 8;
  options.parallel_dispatch = true;
  auto report = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(report.ok());
  // Every assignment names a distinct worker, and the books balance.
  std::set<std::string> assigned_workers;
  size_t assigned = 0;
  for (const TaskOutcome& outcome : report->task_outcomes) {
    EXPECT_TRUE(outcome.status.ok());
    if (!outcome.worker) continue;
    EXPECT_TRUE(assigned_workers.insert(*outcome.worker).second)
        << *outcome.worker << " assigned twice";
    ++assigned;
  }
  EXPECT_EQ(assigned, report->assigned);
  EXPECT_EQ(report->assigned + report->unassigned, report->task_arrivals);
  EXPECT_EQ(report->available_workers_end + report->assigned +
                report->departures - report->missed_departures,
            report->worker_arrivals);
}

TEST(ReplayTest, EpochBudgetDeniesWithinWindowOnly) {
  // Build a trace where the same worker re-reports three times in one
  // window and once in the next: with a two-report epoch budget the third
  // in-window report is denied, the next-window one is admitted.
  TbfFramework framework = BuildFramework(0.4);
  EventTrace trace;
  trace.region = BBox::Square(200);
  auto at = [&](double time, EventKind kind, const std::string& id) {
    TimedEvent event;
    event.time = time;
    event.kind = kind;
    event.id = id;
    event.location = Point{100.0, 100.0};
    trace.events.push_back(event);
  };
  at(0.0, EventKind::kWorkerArrival, "w");
  at(1.0, EventKind::kWorkerArrival, "w");
  at(2.0, EventKind::kWorkerArrival, "w");   // denied: epoch cap
  at(70.0, EventKind::kWorkerArrival, "w");  // next epoch: admitted

  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.epoch_budget = 2 * framework.epsilon() + 1e-9;
  auto report = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->denied, 1u);
  EXPECT_EQ(report->available_workers_end, 1u);
  ASSERT_EQ(report->per_epoch.size(), 2u);
  EXPECT_EQ(report->per_epoch[0].denied, 1u);
  EXPECT_EQ(report->per_epoch[1].denied, 0u);

  // Per-epoch privacy accounting (ledger Totals deltas, metrics-agnostic):
  // two admitted charges in the first window, one in the second, one
  // epoch-cap denial in the first.
  EXPECT_DOUBLE_EQ(report->per_epoch[0].epsilon_spent, 2 * framework.epsilon());
  EXPECT_DOUBLE_EQ(report->per_epoch[1].epsilon_spent, framework.epsilon());
  EXPECT_EQ(report->per_epoch[0].denied_epoch_budget, 1u);
  EXPECT_EQ(report->per_epoch[0].denied_lifetime_budget, 0u);
  EXPECT_EQ(report->per_epoch[1].denied_epoch_budget, 0u);
  EXPECT_DOUBLE_EQ(report->epsilon_spent, 3 * framework.epsilon());
  EXPECT_EQ(report->denied_epoch_budget, 1u);
  EXPECT_EQ(report->denied_lifetime_budget, 0u);
}

TEST(ReplayTest, LifetimeOnlyBudgetDeniesAsLifetime) {
  // The same re-reporting worker under a lifetime cap alone: both
  // overspending reports are lifetime denials, in the report totals and
  // in every per-epoch row — there is no epoch cap to blame.
  TbfFramework framework = BuildFramework(0.4);
  EventTrace trace;
  trace.region = BBox::Square(200);
  for (double time : {0.0, 1.0, 2.0, 70.0}) {
    TimedEvent event;
    event.time = time;
    event.kind = EventKind::kWorkerArrival;
    event.id = "w";
    event.location = Point{100.0, 100.0};
    trace.events.push_back(event);
  }

  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.lifetime_budget = 2 * framework.epsilon() + 1e-9;
  auto report = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->denied, 2u);
  EXPECT_EQ(report->denied_lifetime_budget, 2u);
  EXPECT_EQ(report->denied_epoch_budget, 0u);
  ASSERT_EQ(report->per_epoch.size(), 2u);
  for (const EpochStats& stats : report->per_epoch) {
    EXPECT_EQ(stats.denied_lifetime_budget, stats.denied);
    EXPECT_EQ(stats.denied_epoch_budget, 0u);
  }
  EXPECT_EQ(report->per_epoch[0].denied_lifetime_budget, 1u);
  EXPECT_EQ(report->per_epoch[1].denied_lifetime_budget, 1u);
}

#ifndef TBF_METRICS_DISABLED

TEST(ReplayTest, FlightRecorderFieldsDescribeTheRun) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(120, 80, 0.1, 29);
  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 4;
  auto report = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(report.ok());

  // Latency percentiles come from the run's histograms: present, ordered,
  // and positive once any task/report was processed.
  ASSERT_GT(report->task_arrivals, 0u);
  EXPECT_GT(report->dispatch_p50_ns, 0.0);
  EXPECT_LE(report->dispatch_p50_ns, report->dispatch_p95_ns);
  EXPECT_LE(report->dispatch_p95_ns, report->dispatch_p99_ns);
  const obs::HistogramSample* obfuscate =
      report->metrics.FindHistogram("tbf_replay_obfuscate_latency_ns");
  ASSERT_NE(obfuscate, nullptr);
  EXPECT_GT(obfuscate->Quantile(0.50), 0.0);
  EXPECT_LE(obfuscate->Quantile(0.50), obfuscate->Quantile(0.99));

  // Per-shard counters are exhaustive: summed over shards they equal the
  // loop's own ReplayCounts totals (every registration succeeded — no
  // budgets — and every assignment consumed a worker from some shard).
  const auto shard_sum = [&](const char* name) {
    uint64_t sum = 0;
    for (int s = 0; s < 4; ++s) {
      sum += static_cast<uint64_t>(report->metrics.CounterValue(
          obs::LabeledName(name, "shard", std::to_string(s))));
    }
    return sum;
  };
  const uint64_t arrivals = shard_sum("tbf_serve_worker_arrivals_total");
  const uint64_t departures = shard_sum("tbf_serve_departures_total");
  const uint64_t tasks = shard_sum("tbf_serve_tasks_total");
  const uint64_t assigned = shard_sum("tbf_serve_assigned_total");
  EXPECT_EQ(arrivals, report->worker_arrivals);
  EXPECT_EQ(departures, report->departures - report->missed_departures);
  EXPECT_EQ(tasks, report->task_arrivals);
  EXPECT_EQ(assigned, report->assigned);

  // The raw snapshot carries the serve series; the dispatch histogram saw
  // every task.
  const obs::HistogramSample* dispatch =
      report->metrics.FindHistogram("tbf_serve_dispatch_latency_ns");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->count, report->task_arrivals);
  EXPECT_EQ(static_cast<size_t>(report->metrics.CounterValue(
                "tbf_serve_unassigned_total")),
            report->unassigned);
}

TEST(ReplayTest, RunRegistriesAreIsolated) {
  // Two runs must not bleed counters into each other (each instruments a
  // private registry, not the process-wide one).
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(50, 25, 0.1, 31);
  ReplayOptions options;
  options.num_shards = 2;
  auto first = RunEventReplay(framework, trace, options);
  auto second = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const obs::HistogramSample* a =
      first->metrics.FindHistogram("tbf_serve_dispatch_latency_ns");
  const obs::HistogramSample* b =
      second->metrics.FindHistogram("tbf_serve_dispatch_latency_ns");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->count, b->count);  // not doubled by the first run
  EXPECT_EQ(a->count, first->task_arrivals);
}

#endif  // TBF_METRICS_DISABLED

TEST(ReplayTest, EventTraceSurvivesCsvRoundTripIntoReplay) {
  // The adoption path: external timestamped trace in, replay out.
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(60, 30, 0.25, 23);
  auto written = WriteEventTrace(trace);
  ASSERT_TRUE(written.ok());
  auto loaded = ReadEventTrace(*written);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->events.size(), trace.events.size());
  ReplayOptions options;
  options.num_shards = 2;
  auto direct = RunEventReplay(framework, trace, options);
  auto via_csv = RunEventReplay(framework, *loaded, options);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_csv.ok());
  ASSERT_EQ(direct->task_outcomes.size(), via_csv->task_outcomes.size());
  for (size_t t = 0; t < direct->task_outcomes.size(); ++t) {
    EXPECT_EQ(direct->task_outcomes[t].worker, via_csv->task_outcomes[t].worker);
  }
}

// --- poison events: one predicate, both policies ------------------------

// `clean` with one event spliced in at `pos`: a copy of the reporting
// event there, broken by `mutate`.
EventTrace WithPoisonAt(const EventTrace& clean, size_t pos,
                        const std::function<void(TimedEvent*)>& mutate) {
  EventTrace poisoned = clean;
  TimedEvent bad = poisoned.events[pos];
  bad.kind = EventKind::kWorkerArrival;  // location poison needs a report
  mutate(&bad);
  poisoned.events.insert(poisoned.events.begin() + static_cast<long>(pos),
                         bad);
  return poisoned;
}

// Under kFail the run is refused with InvalidArgument naming the cause
// and the event; under kQuarantine the event is recorded with that cause
// and the survivors' outcomes equal the clean trace's.
void ExpectPoisonUnderBothPolicies(
    const std::function<void(TimedEvent*)>& mutate, const std::string& cause) {
  TbfFramework framework = BuildFramework();
  const EventTrace clean = SmallTrace(60, 40, 0.1, 9);
  const size_t pos = clean.events.size() / 2;
  const EventTrace poisoned = WithPoisonAt(clean, pos, mutate);
  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 2;

  auto failed = RunEventReplay(framework, poisoned, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(failed.status().message(),
            cause + " (event " + std::to_string(pos) + ")");

  options.poison_policy = PoisonPolicy::kQuarantine;
  auto quarantined = RunEventReplay(framework, poisoned, options);
  ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
  ASSERT_EQ(quarantined->quarantined_events.size(), 1u);
  EXPECT_EQ(quarantined->quarantined_events[0].event_index, pos);
  EXPECT_EQ(quarantined->quarantined_events[0].cause, cause);

  options.poison_policy = PoisonPolicy::kFail;
  auto reference = RunEventReplay(framework, clean, options);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(quarantined->task_outcomes.size(),
            reference->task_outcomes.size());
  for (size_t i = 0; i < reference->task_outcomes.size(); ++i) {
    EXPECT_EQ(quarantined->task_outcomes[i].worker,
              reference->task_outcomes[i].worker)
        << i;
  }
}

TEST(ReplayPoisonTest, NonFiniteCoordinateIsPoisonUnderBothPolicies) {
  ExpectPoisonUnderBothPolicies(
      [](TimedEvent* e) { e->location.y = std::nan(""); },
      "non-finite location coordinates");
}

TEST(ReplayPoisonTest, EmptyIdIsPoisonUnderBothPolicies) {
  ExpectPoisonUnderBothPolicies([](TimedEvent* e) { e->id.clear(); },
                                "empty event id");
}

TEST(ReplayPoisonTest, OverflowingCoordinateIsPoisonUnderBothPolicies) {
  // Finite, but x*x + y*y overflows: no distance to it means anything.
  ExpectPoisonUnderBothPolicies(
      [](TimedEvent* e) { e->location = {1e300, -1e300}; },
      "location too far out: its squared norm overflows");
}

TEST(ReplayPoisonTest, FailKeepsTheHistoricalTimeMessages) {
  TbfFramework framework = BuildFramework();
  const EventTrace clean = SmallTrace(60, 40, 0.1, 9);
  const auto message = [&](const EventTrace& trace) {
    auto report = RunEventReplay(framework, trace, ReplayOptions{});
    EXPECT_FALSE(report.ok());
    return report.status().message();
  };
  EXPECT_EQ(message(WithPoisonAt(clean, 7,
                                 [](TimedEvent* e) {
                                   e->time = std::nan("");
                                 })),
            "event times must be finite (event 7)");
  EXPECT_EQ(message(WithPoisonAt(clean, 7,
                                 [](TimedEvent* e) { e->time = -1.0; })),
            "events must be in nondecreasing time order (event 7)");
}

// ReplayCounts::Add is the one classifier of outcomes. Each row names the
// values of the record fields that decide its bucket (an empty list means
// every value); the test sweeps every WalRecordKind x status x flag
// combination, checks the rows cover each exactly once, and that the
// record lands in exactly the row's bucket (none for `nullptr`), with
// processed_events counting only dispatch and quarantine records.
TEST(ReplayCountsTest, EveryRecordLandsInExactlyOneBucket) {
  using Bucket = uint64_t ReplayCounts::*;
  using K = WalRecordKind;
  using C = StatusCode;
  const std::vector<C> other_errors = {
      C::kInvalidArgument, C::kOutOfRange, C::kNotFound,
      C::kAlreadyExists, C::kFailedPrecondition, C::kInternal,
      C::kIOError, C::kUnimplemented, C::kAborted};
  struct Row {
    K kind;
    std::vector<C> codes;
    std::vector<bool> forced;
    std::vector<bool> has_worker;
    std::vector<bool> missed;
    std::vector<uint8_t> fault_kind;
    Bucket bucket;
    bool processed;
  };
  const std::vector<Row> rows = {
      {K::kWorkerArrival, {C::kOk}, {false}, {}, {}, {},
       &ReplayCounts::registered, true},
      {K::kWorkerArrival, {C::kResourceExhausted}, {false}, {}, {}, {},
       &ReplayCounts::shed, true},
      {K::kWorkerArrival, other_errors, {false}, {}, {}, {},
       &ReplayCounts::denied, true},
      {K::kWorkerArrival, {}, {true}, {}, {}, {}, &ReplayCounts::denied,
       true},
      {K::kTaskArrival, {C::kOk}, {false}, {true}, {}, {},
       &ReplayCounts::assigned, true},
      {K::kTaskArrival, {C::kOk}, {false}, {false}, {}, {},
       &ReplayCounts::unassigned, true},
      {K::kTaskArrival, {C::kResourceExhausted}, {false}, {}, {}, {},
       &ReplayCounts::shed, true},
      {K::kTaskArrival, other_errors, {false}, {}, {}, {},
       &ReplayCounts::denied, true},
      {K::kTaskArrival, {}, {true}, {}, {}, {}, &ReplayCounts::denied, true},
      {K::kWorkerDeparture, {}, {}, {}, {true}, {},
       &ReplayCounts::missed_departures, true},
      {K::kWorkerDeparture, {}, {}, {}, {false}, {}, nullptr, true},
      {K::kQuarantine, {}, {}, {}, {}, {}, &ReplayCounts::quarantined, true},
      {K::kStreamFault, {}, {}, {}, {}, {0}, &ReplayCounts::faults_dropped,
       false},
      {K::kStreamFault, {}, {}, {}, {}, {1},
       &ReplayCounts::faults_duplicated, false},
      {K::kStreamFault, {}, {}, {}, {}, {2}, &ReplayCounts::faults_reordered,
       false},
      {K::kStreamFault, {}, {}, {}, {}, {3}, &ReplayCounts::faults_stalled,
       false},
      {K::kSegmentHeader, {}, {}, {}, {}, {}, nullptr, false},
      {K::kEpochBegin, {}, {}, {}, {}, {}, nullptr, false},
      {K::kRepublish, {}, {}, {}, {}, {}, nullptr, false},
  };
  const std::vector<std::pair<const char*, Bucket>> buckets = {
      {"registered", &ReplayCounts::registered},
      {"assigned", &ReplayCounts::assigned},
      {"unassigned", &ReplayCounts::unassigned},
      {"denied", &ReplayCounts::denied},
      {"shed", &ReplayCounts::shed},
      {"quarantined", &ReplayCounts::quarantined},
      {"missed_departures", &ReplayCounts::missed_departures},
      {"faults_dropped", &ReplayCounts::faults_dropped},
      {"faults_duplicated", &ReplayCounts::faults_duplicated},
      {"faults_reordered", &ReplayCounts::faults_reordered},
      {"faults_stalled", &ReplayCounts::faults_stalled},
      {"checkpoints_written", &ReplayCounts::checkpoints_written},
  };
  std::vector<C> all_codes = other_errors;
  all_codes.push_back(C::kOk);
  all_codes.push_back(C::kResourceExhausted);
  const std::vector<K> all_kinds = {
      K::kSegmentHeader,   K::kEpochBegin, K::kWorkerArrival, K::kTaskArrival,
      K::kWorkerDeparture, K::kQuarantine, K::kStreamFault,   K::kRepublish};
  const auto or_all = [](const auto& values, const auto& all) {
    return values.empty() ? all : values;
  };

  std::set<std::tuple<K, C, bool, bool, bool, uint8_t>> covered;
  for (const Row& row : rows) {
    for (const C code : or_all(row.codes, all_codes)) {
      for (const bool forced : or_all(row.forced, std::vector{false, true})) {
        for (const bool worker :
             or_all(row.has_worker, std::vector{false, true})) {
          for (const bool missed :
               or_all(row.missed, std::vector{false, true})) {
            for (const uint8_t fault_kind :
                 or_all(row.fault_kind, std::vector<uint8_t>{0, 1, 2, 3})) {
              EXPECT_TRUE(covered
                              .emplace(row.kind, code, forced, worker,
                                       missed, fault_kind)
                              .second)
                  << "two rows claim one combination";
              WalRecord rec;
              rec.kind = row.kind;
              rec.outcome.status_code = static_cast<int32_t>(code);
              rec.outcome.forced = forced;
              rec.outcome.has_worker = worker;
              rec.missed = missed;
              rec.fault_kind = fault_kind;
              ReplayCounts counts;
              counts.Add(rec);
              const std::string where =
                  "kind " + std::to_string(static_cast<int>(row.kind)) +
                  " code " + StatusCodeName(code) +
                  " forced " + std::to_string(forced) + " worker " +
                  std::to_string(worker) + " missed " +
                  std::to_string(missed) + " fault " +
                  std::to_string(fault_kind);
              for (const auto& [name, bucket] : buckets) {
                EXPECT_EQ(counts.*bucket, bucket == row.bucket ? 1u : 0u)
                    << name << " for " << where;
              }
              EXPECT_EQ(counts.processed_events, row.processed ? 1u : 0u)
                  << where;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(covered.size(),
            all_kinds.size() * all_codes.size() * 2 * 2 * 2 * 4);
}

TEST(ReplayCountsTest, PlusEqualsAddsEveryCounter) {
  ReplayCounts a;
  a.registered = 1;
  a.assigned = 2;
  a.unassigned = 3;
  a.denied = 4;
  a.shed = 5;
  a.quarantined = 6;
  a.missed_departures = 7;
  a.processed_events = 8;
  a.faults_dropped = 9;
  a.faults_duplicated = 10;
  a.faults_reordered = 11;
  a.faults_stalled = 12;
  a.checkpoints_written = 13;
  ReplayCounts sum;
  sum += a;
  EXPECT_EQ(sum, a);
  sum += a;
  EXPECT_EQ(sum.registered, 2u);
  EXPECT_EQ(sum.checkpoints_written, 26u);
  EXPECT_FALSE(sum == a);
  ReplayCounts twice = a;
  twice += a;
  EXPECT_EQ(sum, twice);
}

}  // namespace
}  // namespace tbf
