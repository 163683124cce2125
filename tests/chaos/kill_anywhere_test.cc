// Kill-anywhere chaos drill: a durable replay is killed at RANDOM journal
// positions — mid-window, mid-group, right before or after a checkpoint,
// around republish swaps — and recovery must reproduce the uninterrupted
// run field-for-field: worker registry, free-list recycling order, RNG
// state, ledger totals and per-user spends, tree epoch, and the full
// deterministic report (task outcomes, per-epoch exact epsilon).
//
// The drill covers >= 50 kill points across >= 3 trace seeds, rotating
// the journal fsync policy (every-record / group-commit / none) so each
// crash-surface shows up: a torn tail of at most one record, at most one
// group, or whatever fflush left behind. Further kills run with a seeded
// stream-fault and forced-denial plan armed for the killed run, its
// recovery and the reference alike.
//
// A second drill runs the same kills on a tree whose leaf codes need 65
// bits (depth 13, arity 32): the smallest shape past one 64-bit word,
// served, journaled, checkpointed and snapshotted on its 128-bit codes.
// A third runs them under the epoch cap alone, the durable benchmark's
// budget configuration, where the ledger keeps no lifetime table; a
// fourth under every setting of that benchmark's durable workload
// (perfbench/workload.cc): 30 s epochs, a checkpoint every fourth epoch,
// the default group commit, keep_checkpoints 2.
//
// CI hooks: TBF_CHAOS_SEED pins the drill to one seed per job;
// TBF_CHAOS_CHECKPOINT_DIR makes the last kill of each seed leave its
// recovered durable directory behind for tools/check_wal.py and
// tools/check_checkpoint.py to validate as artifacts (and the wide drill
// its tree snapshot for tools/check_snapshot.py).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "chaos/replay_compare.h"
#include "common/fault.h"
#include "geo/grid.h"
#include "hst/pack_paths.h"
#include "hst/snapshot.h"
#include "serve/fixtures.h"
#include "serve/recovery.h"
#include "serve/replay.h"
#include "workload/synthetic.h"

namespace tbf {
namespace {

namespace fs = std::filesystem;

#ifndef TBF_FAULTS_DISABLED

EventTrace DrillTrace(uint64_t seed) {
  SyntheticEventConfig config;
  config.base.num_workers = 110;
  config.base.num_tasks = 80;
  config.base.seed = seed;
  config.horizon_seconds = 600.0;
  config.departure_probability = 0.15;
  auto trace = GenerateEventTrace(config);
  EXPECT_TRUE(trace.ok());
  return std::move(trace).MoveValueUnsafe();
}

// A published tree of the smallest shape past 64-bit codes: depth 13 x
// arity 32 = 65 bits. The points are uniform over the drill's region, each
// on a random distinct leaf (FromParts takes any leaf assignment).
std::shared_ptr<const CompleteHst> Wide65BitTree() {
  Rng rng(65);
  std::vector<Point> points;
  std::vector<LeafPath> paths;
  std::set<LeafPath> taken;
  while (points.size() < 300) {
    LeafPath path = RandomLeafPath(13, 32, &rng);
    if (!taken.insert(path).second) continue;
    points.push_back({rng.Uniform(0, 200), rng.Uniform(0, 200)});
    paths.push_back(std::move(path));
  }
  auto tree = CompleteHst::FromParts(13, 32, 0.05, std::move(points),
                                     PackPaths(13, 32, paths));
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::make_shared<const CompleteHst>(std::move(tree).MoveValueUnsafe());
}

std::shared_ptr<const CompleteHst> CopiedTree(const CompleteHst& tree) {
  auto copy = ParseHstSnapshot(SerializeHstSnapshot(tree));
  EXPECT_TRUE(copy.ok());
  return std::make_shared<const CompleteHst>(
      std::move(copy).MoveValueUnsafe());
}

// The privacy contract a crash must never break: no user exceeds their
// caps, whatever the journal lost or re-applied.
void ExpectLedgerNeverOverspends(const ShardedServerState& state,
                                 double epoch_budget, double lifetime_budget,
                                 const std::string& what) {
  ASSERT_TRUE(state.ledger.has_value()) << what;
  const double slack = 1e-9;
  for (const auto& [user, spent] : state.ledger->epoch_spent) {
    EXPECT_LE(spent, epoch_budget + slack) << what << " user " << user;
  }
  for (const auto& [user, spent] : state.ledger->lifetime_spent) {
    EXPECT_LE(spent, lifetime_budget + slack) << what << " user " << user;
  }
}

constexpr double kEpochBudget = 1.5;
constexpr double kLifetimeBudget = 4.0;

enum class Settings {
  kBothCaps,       ///< a checkpoint every epoch, both budget caps
  kEpochCapAlone,  ///< the same, with the epoch cap alone
  kBenchmark,      ///< the durable benchmark's settings (see the top)
};

// `settings` other than kBothCaps run the epoch cap alone, as the durable
// benchmark does: the ledger then keeps no lifetime table. kBenchmark
// ignores `policy_rotation`.
ReplayOptions DrillOptions(const std::string& dir, int policy_rotation,
                           Settings settings = Settings::kBothCaps) {
  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.durable_dir = dir;
  options.keep_checkpoints = 2;
  options.checkpoint_every_epochs = 1;
  options.export_final_state = true;
  if (settings == Settings::kBothCaps) {
    options.lifetime_budget = kLifetimeBudget;
  }
  options.epoch_budget = kEpochBudget;
  if (settings == Settings::kBenchmark) {
    options.epoch_seconds = 30.0;
    options.checkpoint_every_epochs = 4;
    options.wal_fsync = WalFsyncPolicy::GroupCommit();
    return options;
  }
  switch (policy_rotation % 3) {
    case 0:
      options.wal_fsync = WalFsyncPolicy::EveryRecord();
      break;
    case 1:
      options.wal_fsync = WalFsyncPolicy::GroupCommit(8, 1 << 14, 0.005);
      break;
    default:
      options.wal_fsync = WalFsyncPolicy::None();
      break;
  }
  return options;
}

// One kill: a durable run with `stream_plan` plus a "wal.append" kill at
// `kill_lsn` armed, then a recovery with `stream_plan` alone re-armed,
// checked field for field against `reference` (the uninterrupted run
// under the same `stream_plan`).
void KillAndRecover(const TbfFramework& framework, const EventTrace& trace,
                    const std::vector<ReplayRepublish>& schedule,
                    const fault::FaultPlan& stream_plan,
                    const ReplayReport& reference, uint64_t kill_lsn,
                    int policy_rotation, const std::string& dir,
                    const std::string& what,
                    Settings settings = Settings::kBothCaps) {
  fs::remove_all(dir);
  ReplayOptions options = DrillOptions(dir, policy_rotation, settings);
  options.republishes = schedule;
  bool crashed = false;
  {
    fault::FaultPlan plan = stream_plan;
    fault::FaultSpec kill;
    kill.site = "wal.append";
    kill.kind = fault::FaultKind::kFail;
    kill.code = StatusCode::kAborted;
    kill.after = kill_lsn;
    kill.count = 1;
    plan.faults.push_back(kill);
    fault::ScopedFaultPlan armed(plan);
    auto died = RunEventReplay(framework, trace, options);
    crashed = !died.ok();
    if (crashed) {
      EXPECT_EQ(died.status().code(), StatusCode::kAborted) << what;
    }
  }

  ReplayOptions resume = options;
  resume.recover = true;
  Result<ReplayReport> recovered = Status::Internal("unset");
  {
    fault::ScopedFaultPlan armed(stream_plan);
    recovered = RunEventReplay(framework, trace, resume);
  }
  ASSERT_TRUE(recovered.ok()) << what << ": " << recovered.status().ToString();
  ASSERT_TRUE(recovered->final_state.has_value()) << what;
  if (crashed) {
    EXPECT_TRUE(recovered->resumed || recovered->recovered_events > 0 ||
                recovered->wal_truncated_records > 0)
        << what << ": a crashed run recovered nothing";
  }

  EXPECT_EQ(ReplayDifference(*recovered, reference), "") << what;
  ExpectLedgerNeverOverspends(*recovered->final_state, kEpochBudget,
                              kLifetimeBudget, what);

  // The recovered directory itself must be in a recoverable state
  // (checkpoints valid, journal scannable) — CI additionally runs
  // tools/check_wal.py over the kept artifact.
  auto post = RecoverReplayDir(dir);
  EXPECT_TRUE(post.ok()) << what << ": " << post.status().ToString();
}

// The uninterrupted reference run under `stream_plan` (also durable: the
// journal length defines the kill range). Returns its journal's next lsn.
uint64_t RunReference(const TbfFramework& framework, const EventTrace& trace,
                      const std::vector<ReplayRepublish>& schedule,
                      const fault::FaultPlan& stream_plan,
                      const std::string& dir, Result<ReplayReport>* out,
                      Settings settings = Settings::kBothCaps) {
  fs::remove_all(dir);
  ReplayOptions options = DrillOptions(dir, 0, settings);
  options.republishes = schedule;
  {
    fault::ScopedFaultPlan armed(stream_plan);
    *out = RunEventReplay(framework, trace, options);
  }
  EXPECT_TRUE(out->ok()) << out->status().ToString();
  if (!out->ok()) return 0;
  EXPECT_TRUE((*out)->final_state.has_value());
  auto scan = ScanWalDir(dir, /*repair_torn_tail=*/false);
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  fs::remove_all(dir);
  return scan.ok() ? scan->next_lsn : 0;
}

TEST(KillAnywhereDrill, RecoveryIsFieldForFieldIdentical) {
  const char* pinned = std::getenv("TBF_CHAOS_SEED");
  const char* artifact_root = std::getenv("TBF_CHAOS_CHECKPOINT_DIR");
  std::vector<uint64_t> seeds{101, 202, 303};
  if (pinned != nullptr) {
    seeds.assign(1, static_cast<uint64_t>(std::strtoull(pinned, nullptr, 10)));
  }
  // 18 kills per seed: 54 >= 50 kill points across the default 3 seeds.
  // Then 6 more per seed with a stream + forced-denial fault plan armed
  // in every run: recovery re-decides those faults under the same plan.
  const int kills_per_seed = 18;
  const int faulted_kills_per_seed = 6;

  TbfFramework framework = BuildFramework();
  // A mid-run live republish so kills land before, inside and after a
  // tree swap (the journal's kRepublish records must be re-produced).
  std::vector<ReplayRepublish> schedule;
  schedule.push_back({2, CopiedTree(framework.tree())});

  for (uint64_t seed : seeds) {
    EventTrace trace = DrillTrace(seed);
    const std::string tag = "seed" + std::to_string(seed);

    const fault::FaultPlan no_faults;
    Result<ReplayReport> clean = Status::Internal("unset");
    const uint64_t total_lsns =
        RunReference(framework, trace, schedule, no_faults,
                     ::testing::TempDir() + "/tbf_drill_clean_" + tag, &clean);
    ASSERT_TRUE(clean.ok()) << tag;
    ASSERT_GT(total_lsns, 10u) << tag;

    // Caller-indexed sites only (trace positions), so the plan means the
    // same faults in the killed run, its recovery and the reference. One
    // explicit forced-denial window guarantees "replay.budget" fires.
    fault::FaultPlan stream_plan = fault::FaultPlan::Seeded(
        seed, {"replay.event", "replay.budget"}, 8, trace.events.size());
    {
      fault::FaultSpec denial;
      denial.site = "replay.budget";
      denial.kind = fault::FaultKind::kFail;
      denial.after = trace.events.size() / 2;
      denial.count = 4;
      stream_plan.faults.push_back(denial);
    }
    Result<ReplayReport> faulted = Status::Internal("unset");
    const uint64_t faulted_lsns = RunReference(
        framework, trace, schedule, stream_plan,
        ::testing::TempDir() + "/tbf_drill_faulted_" + tag, &faulted);
    ASSERT_TRUE(faulted.ok()) << tag;
    ASSERT_GT(faulted_lsns, 10u) << tag;
    ASSERT_GT(faulted->denied, clean->denied) << tag;

    Rng kill_rng(seed * 7919 + 1);
    for (int t = 0; t < kills_per_seed + faulted_kills_per_seed; ++t) {
      const bool with_faults = t >= kills_per_seed;
      // RANDOM kill position over the whole journal LSN range. Kills that
      // land on a segment-header LSN never fire (headers are not
      // appended), which degenerates to recover-after-clean-exit — a
      // crash surface worth covering too.
      const uint64_t kill_lsn =
          kill_rng.NextU64() % (with_faults ? faulted_lsns : total_lsns);
      const std::string what = tag + (with_faults ? " faulted" : "") +
                               " kill@" + std::to_string(kill_lsn);
      const bool keep_artifacts =
          artifact_root != nullptr && t + 1 == kills_per_seed;
      const std::string dir =
          keep_artifacts
              ? std::string(artifact_root) + "/kill_anywhere_" + tag
              : ::testing::TempDir() + "/tbf_drill_" + tag;
      KillAndRecover(framework, trace, schedule,
                     with_faults ? stream_plan : no_faults,
                     with_faults ? *faulted : *clean, kill_lsn, t, dir, what);
      if (!keep_artifacts) fs::remove_all(dir);
    }
  }
}

TEST(KillAnywhereDrill, WideCodeShapeRecoversFieldForField) {
  // The drill above on a 65-bit shape: every report, journal record,
  // checkpoint worker row and snapshot leaf uses both words of its code.
  const char* artifact_root = std::getenv("TBF_CHAOS_CHECKPOINT_DIR");
  std::shared_ptr<const CompleteHst> tree = Wide65BitTree();
  ASSERT_EQ(tree->codec()->low_bits(), 63);
  TbfOptions options;
  options.epsilon = 0.6;
  auto built = TbfFramework::FromTree(tree, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const TbfFramework framework = std::move(built).MoveValueUnsafe();
  // The republish swaps in a snapshot round trip of the same tree.
  const std::vector<ReplayRepublish> schedule = {{2, CopiedTree(*tree)}};
  const EventTrace trace = DrillTrace(404);
  const fault::FaultPlan no_faults;

  Result<ReplayReport> clean = Status::Internal("unset");
  const uint64_t total_lsns =
      RunReference(framework, trace, schedule, no_faults,
                   ::testing::TempDir() + "/tbf_drill_clean_wide65", &clean);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(total_lsns, 10u);
  ASSERT_GT(clean->assigned, 0u);
  bool low_word_used = false;
  for (const ShardedServerState::Worker& w : clean->final_state->workers) {
    low_word_used |= static_cast<uint64_t>(w.code) != 0;
  }
  EXPECT_TRUE(low_word_used) << "no live report used the 65th bit";

  Rng kill_rng(404);
  const int kills = 8;
  for (int t = 0; t < kills; ++t) {
    const uint64_t kill_lsn = kill_rng.NextU64() % total_lsns;
    const bool keep_artifacts = artifact_root != nullptr && t + 1 == kills;
    const std::string dir =
        keep_artifacts ? std::string(artifact_root) + "/kill_anywhere_wide65"
                       : ::testing::TempDir() + "/tbf_drill_wide65";
    KillAndRecover(framework, trace, schedule, no_faults, *clean, kill_lsn, t,
                   dir, "wide65 kill@" + std::to_string(kill_lsn));
    if (!keep_artifacts) fs::remove_all(dir);
  }
  if (artifact_root != nullptr) {
    ASSERT_TRUE(
        WriteHstSnapshotFile(*tree, std::string(artifact_root) + "/wide65.snap")
            .ok());
  }
}

TEST(KillAnywhereDrill, EpochCapAloneRecoversFieldForField) {
  // The benchmark's budget configuration: an epoch cap and no lifetime
  // cap, so no lifetime table is kept, checkpointed or restored, and the
  // history rows come back from the outcome log alone.
  const char* artifact_root = std::getenv("TBF_CHAOS_CHECKPOINT_DIR");
  TbfFramework framework = BuildFramework();
  const std::vector<ReplayRepublish> schedule = {
      {2, CopiedTree(framework.tree())}};
  const EventTrace trace = DrillTrace(505);
  const fault::FaultPlan no_faults;

  Result<ReplayReport> clean = Status::Internal("unset");
  const uint64_t total_lsns = RunReference(
      framework, trace, schedule, no_faults,
      ::testing::TempDir() + "/tbf_drill_clean_epochcap", &clean,
      Settings::kEpochCapAlone);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(total_lsns, 10u);
  ASSERT_TRUE(clean->final_state->ledger.has_value());
  EXPECT_TRUE(clean->final_state->ledger->lifetime_spent.empty());

  Rng kill_rng(505);
  const int kills = 12;
  for (int t = 0; t < kills; ++t) {
    const uint64_t kill_lsn = kill_rng.NextU64() % total_lsns;
    const bool keep_artifacts = artifact_root != nullptr && t + 1 == kills;
    const std::string dir =
        keep_artifacts
            ? std::string(artifact_root) + "/kill_anywhere_epochcap"
            : ::testing::TempDir() + "/tbf_drill_epochcap";
    KillAndRecover(framework, trace, schedule, no_faults, *clean, kill_lsn, t,
                   dir, "epochcap kill@" + std::to_string(kill_lsn),
                   Settings::kEpochCapAlone);
    if (!keep_artifacts) fs::remove_all(dir);
  }
}

TEST(KillAnywhereDrill, BenchmarkConfigurationRecoveryIsFieldForField) {
  // The shipped durable configuration: every drill above checkpoints every
  // epoch, this one every fourth, so kills land in the unverified journal
  // between checkpoints and recovery re-runs up to four epochs.
  const char* artifact_root = std::getenv("TBF_CHAOS_CHECKPOINT_DIR");
  TbfFramework framework = BuildFramework();
  const std::vector<ReplayRepublish> schedule = {
      {2, CopiedTree(framework.tree())}};
  const fault::FaultPlan no_faults;
  const std::vector<uint64_t> seeds = {606, 707, 808};
  const int kills_per_trace = 30;
  for (const uint64_t seed : seeds) {
    const EventTrace trace = DrillTrace(seed);
    const std::string tag = "benchmark" + std::to_string(seed);
    Result<ReplayReport> clean = Status::Internal("unset");
    const uint64_t total_lsns = RunReference(
        framework, trace, schedule, no_faults,
        ::testing::TempDir() + "/tbf_drill_clean_" + tag, &clean,
        Settings::kBenchmark);
    ASSERT_TRUE(clean.ok()) << tag;
    ASSERT_GT(total_lsns, 10u) << tag;
    ASSERT_GE(clean->checkpoints_written, 4u) << tag;

    Rng kill_rng(seed);
    for (int t = 0; t < kills_per_trace; ++t) {
      const uint64_t kill_lsn = kill_rng.NextU64() % total_lsns;
      const bool keep_artifacts = artifact_root != nullptr &&
                                  seed == seeds.back() &&
                                  t + 1 == kills_per_trace;
      const std::string dir =
          keep_artifacts
              ? std::string(artifact_root) + "/kill_anywhere_benchmark"
              : ::testing::TempDir() + "/tbf_drill_" + tag;
      KillAndRecover(framework, trace, schedule, no_faults, *clean, kill_lsn,
                     t, dir, tag + " kill@" + std::to_string(kill_lsn),
                     Settings::kBenchmark);
      if (!keep_artifacts) fs::remove_all(dir);
    }
  }
}

#endif  // TBF_FAULTS_DISABLED

}  // namespace
}  // namespace tbf
