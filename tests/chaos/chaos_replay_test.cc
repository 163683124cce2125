// Chaos harness for the serve stack: seeded fault plans, kill-and-resume
// crash drills, and the robustness accounting identity.
//
// Determinism is compared over the *deterministic* report fields only —
// outcome counters, task outcomes, quarantine records, per-epoch event
// counts and exact ledger spends. Timing fields (seconds, percentiles,
// events_per_second) and latency histograms are scheduling noise and are
// deliberately excluded.
//
// CI hooks: TBF_CHAOS_SEED pins the seeded sweep to one seed per job;
// TBF_CHAOS_CHECKPOINT_DIR makes the sweep leave its checkpoint files
// behind as artifacts for tools/check_checkpoint.py to validate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "geo/grid.h"
#include "hst/snapshot.h"
#include "serve/checkpoint.h"
#include "serve/fixtures.h"
#include "serve/replay.h"
#include "workload/synthetic.h"

namespace tbf {
namespace {

EventTrace ChaosTrace(int workers = 160, int tasks = 120, uint64_t seed = 5) {
  SyntheticEventConfig config;
  config.base.num_workers = workers;
  config.base.num_tasks = tasks;
  config.base.seed = seed;
  config.horizon_seconds = 600.0;
  config.departure_probability = 0.15;
  auto trace = GenerateEventTrace(config);
  EXPECT_TRUE(trace.ok());
  return std::move(trace).MoveValueUnsafe();
}

// Every event the loop attempted landed in exactly one outcome bucket
// (see the identity note in serve/replay.h).
void ExpectAccountingIdentity(const ReplayReport& r) {
  EXPECT_TRUE(r.CheckAccountingIdentity().ok())
      << r.CheckAccountingIdentity().ToString();
}

#ifndef TBF_FAULTS_DISABLED

void ExpectDeterministicFieldsEqual(const ReplayReport& a,
                                    const ReplayReport& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.registered, b.registered);
  EXPECT_EQ(a.assigned, b.assigned);
  EXPECT_EQ(a.unassigned, b.unassigned);
  EXPECT_EQ(a.denied, b.denied);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.missed_departures, b.missed_departures);
  EXPECT_EQ(a.processed_events, b.processed_events);
  EXPECT_EQ(a.republishes, b.republishes);
  EXPECT_EQ(a.faults_dropped, b.faults_dropped);
  EXPECT_EQ(a.faults_duplicated, b.faults_duplicated);
  EXPECT_EQ(a.faults_reordered, b.faults_reordered);
  EXPECT_EQ(a.faults_stalled, b.faults_stalled);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.available_workers_end, b.available_workers_end);
  EXPECT_EQ(a.epsilon_spent, b.epsilon_spent);  // exact: same charge order
  EXPECT_EQ(a.denied_epoch_budget, b.denied_epoch_budget);
  EXPECT_EQ(a.denied_lifetime_budget, b.denied_lifetime_budget);

  ASSERT_EQ(a.task_outcomes.size(), b.task_outcomes.size());
  for (size_t i = 0; i < a.task_outcomes.size(); ++i) {
    EXPECT_EQ(a.task_outcomes[i].task_id, b.task_outcomes[i].task_id) << i;
    EXPECT_EQ(a.task_outcomes[i].status.code(),
              b.task_outcomes[i].status.code())
        << i;
    EXPECT_EQ(a.task_outcomes[i].worker, b.task_outcomes[i].worker) << i;
    EXPECT_EQ(a.task_outcomes[i].reported_tree_distance,
              b.task_outcomes[i].reported_tree_distance)
        << i;
  }
  ASSERT_EQ(a.quarantined_events.size(), b.quarantined_events.size());
  for (size_t i = 0; i < a.quarantined_events.size(); ++i) {
    EXPECT_EQ(a.quarantined_events[i].event_index,
              b.quarantined_events[i].event_index)
        << i;
    EXPECT_EQ(a.quarantined_events[i].id, b.quarantined_events[i].id) << i;
    EXPECT_EQ(a.quarantined_events[i].cause, b.quarantined_events[i].cause)
        << i;
  }
  ASSERT_EQ(a.per_epoch.size(), b.per_epoch.size());
  for (size_t i = 0; i < a.per_epoch.size(); ++i) {
    EXPECT_EQ(a.per_epoch[i].epoch, b.per_epoch[i].epoch) << i;
    EXPECT_EQ(a.per_epoch[i].worker_arrivals, b.per_epoch[i].worker_arrivals)
        << i;
    EXPECT_EQ(a.per_epoch[i].task_arrivals, b.per_epoch[i].task_arrivals) << i;
    EXPECT_EQ(a.per_epoch[i].departures, b.per_epoch[i].departures) << i;
    EXPECT_EQ(a.per_epoch[i].assigned, b.per_epoch[i].assigned) << i;
    EXPECT_EQ(a.per_epoch[i].unassigned, b.per_epoch[i].unassigned) << i;
    EXPECT_EQ(a.per_epoch[i].denied, b.per_epoch[i].denied) << i;
    EXPECT_EQ(a.per_epoch[i].shed, b.per_epoch[i].shed) << i;
    EXPECT_EQ(a.per_epoch[i].quarantined, b.per_epoch[i].quarantined) << i;
    EXPECT_EQ(a.per_epoch[i].epsilon_spent, b.per_epoch[i].epsilon_spent) << i;
    EXPECT_EQ(a.per_epoch[i].denied_epoch_budget,
              b.per_epoch[i].denied_epoch_budget)
        << i;
    EXPECT_EQ(a.per_epoch[i].denied_lifetime_budget,
              b.per_epoch[i].denied_lifetime_budget)
        << i;
  }
}

const std::vector<std::string>& AllChaosSites() {
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      "replay.event", "replay.budget", "budget.charge", "serve.admission",
      "serve.fanout"};
  return *sites;
}

TEST(ChaosReplayTest, SameSeedAndPlanProduceIdenticalReports) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = ChaosTrace();
  const fault::FaultPlan plan = fault::FaultPlan::Seeded(
      17, AllChaosSites(), 16, trace.events.size());

  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 4;
  options.epoch_budget = 5.0;
  options.lifetime_budget = 20.0;
  options.poison_policy = PoisonPolicy::kQuarantine;

  Result<ReplayReport> first = Status::Internal("unset");
  Result<ReplayReport> second = Status::Internal("unset");
  {
    fault::ScopedFaultPlan armed(plan);
    ASSERT_TRUE(armed.armed());
    first = RunEventReplay(framework, trace, options);
  }
  {
    // Fresh Arm: auto-indexed site counters reset, so the run is a clean
    // repetition of the same chaos.
    fault::ScopedFaultPlan armed(plan);
    ASSERT_TRUE(armed.armed());
    second = RunEventReplay(framework, trace, options);
  }
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectAccountingIdentity(*first);
  ExpectDeterministicFieldsEqual(*first, *second);
}

TEST(ChaosReplayTest, KillAtCheckpointAndResumeMatchesUninterruptedRun) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = ChaosTrace(200, 140, 11);

  // Stream chaos on caller-indexed replay.* sites only: their hit indices
  // are absolute trace/epoch positions, so the very same plan means the
  // very same chaos before and after a resume.
  fault::FaultPlan stream_plan = fault::FaultPlan::Seeded(
      23, {"replay.event", "replay.budget"}, 12, trace.events.size());
  fault::FaultPlan kill_plan = stream_plan;
  {
    fault::FaultSpec kill;
    kill.site = "replay.epoch";
    kill.kind = fault::FaultKind::kFail;
    kill.code = StatusCode::kAborted;
    kill.message = "injected crash";
    kill.after = 3;  // die right after epoch ordinal 3's checkpoint
    kill.count = 1;
    kill_plan.faults.push_back(kill);
  }

  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 4;
  options.epoch_budget = 4.0;
  options.lifetime_budget = 15.0;
  options.poison_policy = PoisonPolicy::kQuarantine;
  options.checkpoint_every_epochs = 1;

  // Uninterrupted baseline (its own checkpoint file).
  const std::string base_path =
      ::testing::TempDir() + "/tbf_chaos_baseline.ckpt";
  ReplayOptions baseline_options = options;
  baseline_options.checkpoint_path = base_path;
  Result<ReplayReport> baseline = Status::Internal("unset");
  {
    fault::ScopedFaultPlan armed(stream_plan);
    ASSERT_TRUE(armed.armed());
    baseline = RunEventReplay(framework, trace, baseline_options);
  }
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->epochs, 4u);  // the kill point lies inside the run

  // Crash drill: same stream chaos plus the kill. The run must die with
  // the injected Aborted status, leaving its last checkpoint durable.
  const std::string crash_path = ::testing::TempDir() + "/tbf_chaos_crash.ckpt";
  ReplayOptions crash_options = options;
  crash_options.checkpoint_path = crash_path;
  {
    fault::ScopedFaultPlan armed(kill_plan);
    ASSERT_TRUE(armed.armed());
    auto killed = RunEventReplay(framework, trace, crash_options);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kAborted);
  }

  // The checkpoint on disk is valid and points past epoch ordinal 3.
  auto ckpt = ReadReplayCheckpointFile(crash_path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->epoch_rows, 4u);

  // Resume with the *same* plan armed fresh: the already-passed kill
  // window (epoch ordinal 3) never re-fires, the stream chaos stays
  // aligned via absolute indices. The stitched run must equal the
  // uninterrupted one on every deterministic field.
  ReplayOptions resume_options = crash_options;
  resume_options.resume_from_checkpoint = true;
  Result<ReplayReport> resumed = Status::Internal("unset");
  {
    fault::ScopedFaultPlan armed(kill_plan);
    ASSERT_TRUE(armed.armed());
    resumed = RunEventReplay(framework, trace, resume_options);
  }
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  ExpectAccountingIdentity(*resumed);
  ExpectDeterministicFieldsEqual(*baseline, *resumed);

  for (const std::string& file : {base_path, crash_path}) {
    std::remove(file.c_str());
    std::remove((file + ".outcomes").c_str());
  }
}

TEST(ChaosReplayTest, ResumeRefusesForeignCheckpoints) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = ChaosTrace(60, 40, 3);
  const std::string path = ::testing::TempDir() + "/tbf_chaos_foreign.ckpt";
  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 2;
  options.checkpoint_path = path;
  ASSERT_TRUE(RunEventReplay(framework, trace, options).ok());

  ReplayOptions resume = options;
  resume.resume_from_checkpoint = true;

  // Different trace: fingerprint mismatch.
  EventTrace other = ChaosTrace(60, 40, 4);
  auto r1 = RunEventReplay(framework, other, resume);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kFailedPrecondition);

  // Different configuration: seed mismatch.
  ReplayOptions reseeded = resume;
  reseeded.obfuscation_seed = 999;
  auto r2 = RunEventReplay(framework, trace, reseeded);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kFailedPrecondition);

  // Its own run, but the outcome log the checkpoint covers is gone: the
  // read's IOError.
  std::remove((path + ".outcomes").c_str());
  EXPECT_EQ(RunEventReplay(framework, trace, resume).status().code(),
            StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(ChaosReplayTest, LedgerNeverOverspendsUnderChaos) {
  TbfFramework framework = BuildFramework(0.5);
  EventTrace trace = ChaosTrace(180, 130, 29);
  const double epoch_budget = 2.0;
  const double lifetime_budget = 6.0;

  std::set<std::string> users;
  for (const TimedEvent& event : trace.events) users.insert(event.id);

  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 4;
  options.epoch_budget = epoch_budget;
  options.lifetime_budget = lifetime_budget;
  options.poison_policy = PoisonPolicy::kQuarantine;

  fault::ScopedFaultPlan armed(fault::FaultPlan::Seeded(
      31, AllChaosSites(), 20, trace.events.size()));
  ASSERT_TRUE(armed.armed());
  auto report = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectAccountingIdentity(*report);

  // No fault plan can push admitted spend past the caps: per epoch at
  // most |users| * epoch cap, whole-run at most |users| * lifetime cap.
  const double slack = 1e-9;
  EXPECT_LE(report->epsilon_spent,
            static_cast<double>(users.size()) * lifetime_budget + slack);
  for (const EpochStats& stats : report->per_epoch) {
    EXPECT_LE(stats.epsilon_spent,
              static_cast<double>(users.size()) * epoch_budget + slack)
        << "epoch " << stats.epoch;
  }
}

TEST(ChaosReplayTest, SeededSweepSurvivesAndBalances) {
  // CI drives this with TBF_CHAOS_SEED=<seed> (three fixed seeds, one per
  // matrix entry); unset, it sweeps a built-in trio. When
  // TBF_CHAOS_CHECKPOINT_DIR is set the checkpoints stay behind for
  // tools/check_checkpoint.py.
  std::vector<uint64_t> seeds = {101, 202, 303};
  if (const char* env = std::getenv("TBF_CHAOS_SEED")) {
    seeds = {static_cast<uint64_t>(std::strtoull(env, nullptr, 10))};
  }
  const char* keep_dir = std::getenv("TBF_CHAOS_CHECKPOINT_DIR");

  TbfFramework framework = BuildFramework();
  EventTrace trace = ChaosTrace(140, 100, 41);
  for (const uint64_t seed : seeds) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    ReplayOptions options;
    options.epoch_seconds = 45.0;
    options.num_shards = 4;
    options.epoch_budget = 4.0;
    options.lifetime_budget = 12.0;
    options.poison_policy = PoisonPolicy::kQuarantine;
    options.max_backlog_per_shard = 64;
    options.degrade_fanout_inflight_threshold = 1;
    const std::string dir = keep_dir ? keep_dir : ::testing::TempDir();
    options.checkpoint_path =
        dir + "/chaos_seed_" + std::to_string(seed) + ".ckpt";
    options.checkpoint_every_epochs = 2;

    const fault::FaultPlan plan = fault::FaultPlan::Seeded(
        seed, AllChaosSites(), 24, trace.events.size());
    Result<ReplayReport> first = Status::Internal("unset");
    Result<ReplayReport> second = Status::Internal("unset");
    {
      fault::ScopedFaultPlan armed(plan);
      ASSERT_TRUE(armed.armed());
      first = RunEventReplay(framework, trace, options);
    }
    {
      fault::ScopedFaultPlan armed(plan);
      ASSERT_TRUE(armed.armed());
      second = RunEventReplay(framework, trace, options);
    }
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    ExpectAccountingIdentity(*first);
    ExpectDeterministicFieldsEqual(*first, *second);
    // The sweep's checkpoint parses back (CRC + schema).
    auto ckpt = ReadReplayCheckpointFile(options.checkpoint_path);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    if (!keep_dir) {
      std::remove(options.checkpoint_path.c_str());
      std::remove((options.checkpoint_path + ".outcomes").c_str());
    }
  }
}

// A same-shape tree that genuinely re-keys live workers: the first two
// predefined points trade leaves.
std::shared_ptr<const CompleteHst> SwappedTree(const CompleteHst& tree) {
  std::vector<LeafCode> codes;
  codes.reserve(static_cast<size_t>(tree.num_points()));
  for (int p = 0; p < tree.num_points(); ++p) {
    codes.push_back(tree.leaf_code_of_point(p));
  }
  std::swap(codes[0], codes[1]);
  auto swapped = CompleteHst::FromParts(tree.depth(), tree.arity(),
                                        tree.scale(), tree.points(),
                                        std::move(codes));
  EXPECT_TRUE(swapped.ok()) << swapped.status();
  return std::make_shared<const CompleteHst>(
      std::move(swapped).MoveValueUnsafe());
}

TEST(ChaosReplayTest, KillAtRepublishSwapAndResumeMatchesUninterruptedRun) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = ChaosTrace(200, 140, 11);

  // A live republish to a genuinely different tree at epoch 2, and a
  // second one (back to a copy of the original) later.
  std::vector<ReplayRepublish> schedule;
  schedule.push_back({2, SwappedTree(framework.tree())});
  {
    auto copy = ParseHstSnapshot(SerializeHstSnapshot(framework.tree()));
    ASSERT_TRUE(copy.ok());
    schedule.push_back({5, std::make_shared<const CompleteHst>(
                               std::move(copy).MoveValueUnsafe())});
  }

  fault::FaultPlan stream_plan = fault::FaultPlan::Seeded(
      47, {"replay.event", "replay.budget"}, 10, trace.events.size());
  // The swap site is hit-indexed by the engine's tree epoch, so a
  // resumed run re-attempting the same republish would land on the same
  // index: the kill models a transient fault that has cleared by the
  // time the operator restarts, so the resume arms only the stream plan.
  fault::FaultPlan kill_plan = stream_plan;
  {
    fault::FaultSpec kill;
    kill.site = "republish.swap";
    kill.kind = fault::FaultKind::kFail;
    kill.code = StatusCode::kAborted;
    kill.message = "injected crash at the shard flip";
    kill.after = 0;  // tree epoch 0: the first swap attempt
    kill.count = 1;
    kill_plan.faults.push_back(kill);
  }

  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 4;
  options.epoch_budget = 4.0;
  options.lifetime_budget = 15.0;
  options.poison_policy = PoisonPolicy::kQuarantine;
  options.checkpoint_every_epochs = 1;
  options.republishes = schedule;

  // Uninterrupted baseline, stream chaos only.
  const std::string base_path =
      ::testing::TempDir() + "/tbf_chaos_swap_baseline.ckpt";
  ReplayOptions baseline_options = options;
  baseline_options.checkpoint_path = base_path;
  Result<ReplayReport> baseline = Status::Internal("unset");
  {
    fault::ScopedFaultPlan armed(stream_plan);
    ASSERT_TRUE(armed.armed());
    baseline = RunEventReplay(framework, trace, baseline_options);
  }
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->republishes, 2u);

  // Crash drill: the first shard flip dies mid-republish. The engine
  // aborts the swap atomically, the run surfaces the injected status,
  // and the last durable checkpoint still records tree epoch 0.
  const std::string crash_path =
      ::testing::TempDir() + "/tbf_chaos_swap_crash.ckpt";
  ReplayOptions crash_options = options;
  crash_options.checkpoint_path = crash_path;
  {
    fault::ScopedFaultPlan armed(kill_plan);
    ASSERT_TRUE(armed.armed());
    auto killed = RunEventReplay(framework, trace, crash_options);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kAborted);
  }
  auto ckpt = ReadReplayCheckpointFile(crash_path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->server.tree_epoch, 0u);

  // Resume with the fault cleared: the republish is re-attempted at the
  // same window, succeeds, and the stitched run converges to the
  // uninterrupted one field for field — including the republish count.
  ReplayOptions resume_options = crash_options;
  resume_options.resume_from_checkpoint = true;
  Result<ReplayReport> resumed = Status::Internal("unset");
  {
    fault::ScopedFaultPlan armed(stream_plan);
    ASSERT_TRUE(armed.armed());
    resumed = RunEventReplay(framework, trace, resume_options);
  }
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->republishes, 2u);
  ExpectAccountingIdentity(*resumed);
  ExpectDeterministicFieldsEqual(*baseline, *resumed);

  for (const std::string& file : {base_path, crash_path}) {
    std::remove(file.c_str());
    std::remove((file + ".outcomes").c_str());
  }
}

TEST(ChaosReplayTest, KillAtSnapshotWriteLeavesPublishedSnapshotIntact) {
  // The publisher's crash drill: a snapshot republication dies mid-write.
  // Atomic publication guarantees the previous snapshot survives intact,
  // so a restarting server still comes up — on the old tree.
  TbfFramework framework = BuildFramework();
  // When TBF_CHAOS_CHECKPOINT_DIR is set (CI), the final snapshot stays
  // behind for tools/check_snapshot.py — the same artifact flow as the
  // sweep's checkpoints.
  const char* keep_dir = std::getenv("TBF_CHAOS_CHECKPOINT_DIR");
  const std::string dir = keep_dir ? keep_dir : ::testing::TempDir();
  const std::string path = dir + "/tbf_chaos_snapshot.snap";
  ASSERT_TRUE(WriteHstSnapshotFile(framework.tree(), path).ok());

  auto replacement = SwappedTree(framework.tree());
  {
    fault::FaultSpec spec;
    spec.site = "snapshot.write";
    spec.kind = fault::FaultKind::kFail;
    spec.code = StatusCode::kIOError;
    spec.message = "injected crash mid-write";
    fault::FaultPlan plan;
    plan.faults.push_back(spec);
    fault::ScopedFaultPlan armed(plan);
    ASSERT_TRUE(armed.armed());
    auto failed = WriteHstSnapshotFile(*replacement, path);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIOError);
  }

  // The survivor parses and still carries the ORIGINAL leaf layout, and
  // an engine restarted from it serves draws identical to one built on
  // the in-memory tree.
  auto survivor = ReadHstSnapshotFile(path);
  ASSERT_TRUE(survivor.ok()) << survivor.status();
  EXPECT_EQ(SerializeHstSnapshot(*survivor),
            SerializeHstSnapshot(framework.tree()));

  EventTrace trace = ChaosTrace(60, 40, 19);
  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 2;
  auto from_memory = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(from_memory.ok());

  // After the fault clears, the retry replaces the snapshot atomically.
  ASSERT_TRUE(WriteHstSnapshotFile(*replacement, path).ok());
  auto reloaded = ReadHstSnapshotFile(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(SerializeHstSnapshot(*reloaded),
            SerializeHstSnapshot(*replacement));

  if (!keep_dir) std::remove(path.c_str());
}

#endif  // TBF_FAULTS_DISABLED

TEST(ChaosReplayTest, QuarantineIsolatesPoisonWithoutDisturbingSurvivors) {
  TbfFramework framework = BuildFramework();
  EventTrace clean = ChaosTrace(80, 60, 13);

  // Inject four flavors of poison into a copy, at spread-out positions.
  EventTrace poisoned = clean;
  auto poison_at = [&](size_t pos, auto mutate) {
    TimedEvent bad = poisoned.events[pos];  // clone a real event, then break it
    mutate(&bad);
    poisoned.events.insert(poisoned.events.begin() + static_cast<long>(pos),
                           bad);
  };
  poison_at(poisoned.events.size() / 2, [](TimedEvent* e) {
    e->time = std::numeric_limits<double>::quiet_NaN();
  });
  poison_at(poisoned.events.size() / 3, [](TimedEvent* e) { e->id.clear(); });
  poison_at(poisoned.events.size() / 4, [](TimedEvent* e) {
    // Location poison only applies to reporting events, so force the kind.
    e->kind = EventKind::kWorkerArrival;
    e->location.x = std::numeric_limits<double>::infinity();
  });
  poison_at(2, [](TimedEvent* e) { e->time = -1e12; });  // time regression

  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 2;

  // Default policy: fail fast, as before.
  auto failed = RunEventReplay(framework, poisoned, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);

  // Quarantine policy: the run survives, records each poison event with
  // its cause, and the survivors' outcomes are bit-identical to a trace
  // that never contained the poison.
  options.poison_policy = PoisonPolicy::kQuarantine;
  auto quarantined = RunEventReplay(framework, poisoned, options);
  ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
  EXPECT_EQ(quarantined->quarantined, 4u);
  ASSERT_EQ(quarantined->quarantined_events.size(), 4u);
  std::set<std::string> causes;
  for (const QuarantineRecord& record : quarantined->quarantined_events) {
    causes.insert(record.cause);
    EXPECT_LT(record.event_index, poisoned.events.size());
  }
  EXPECT_TRUE(causes.count("non-finite event time"));
  EXPECT_TRUE(causes.count("empty event id"));
  EXPECT_TRUE(causes.count("non-finite location coordinates"));
  EXPECT_TRUE(
      causes.count("event time regressed below preceding surviving event"));
  ExpectAccountingIdentity(*quarantined);

  ReplayOptions clean_options = options;
  clean_options.poison_policy = PoisonPolicy::kFail;
  auto reference = RunEventReplay(framework, clean, clean_options);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(quarantined->task_outcomes.size(),
            reference->task_outcomes.size());
  for (size_t i = 0; i < reference->task_outcomes.size(); ++i) {
    EXPECT_EQ(quarantined->task_outcomes[i].worker,
              reference->task_outcomes[i].worker)
        << i;
    EXPECT_EQ(quarantined->task_outcomes[i].reported_tree_distance,
              reference->task_outcomes[i].reported_tree_distance)
        << i;
  }
  EXPECT_EQ(quarantined->assigned, reference->assigned);
  EXPECT_EQ(quarantined->available_workers_end,
            reference->available_workers_end);
}

}  // namespace
}  // namespace tbf
