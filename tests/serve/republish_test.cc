// Zero-downtime republish: atomic tree swap with live worker re-keying.
//
// The contracts under test (see src/serve/republish.h):
//  - a no-op republish (bit-identical tree) is draw-for-draw equivalent
//    to never republishing at all;
//  - workers whose report named a real leaf follow their predefined
//    point onto the new tree; fake-leaf reports are kept digit for digit;
//  - an injected fault at either site aborts with the engine untouched;
//  - the tree epoch is part of exported state, and a restore lands a
//    fresh engine on the given tree at that epoch without republishing;
//  - the replay loop applies a republish schedule deterministically.

#include "serve/sharded_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "geo/grid.h"
#include "hst/snapshot.h"
#include "serve/fixtures.h"
#include "serve/replay.h"
#include "workload/synthetic.h"

namespace tbf {
namespace {

// A bit-identical copy by way of the operational snapshot format — the
// exact artifact a restarting publisher would load.
std::shared_ptr<const CompleteHst> SnapshotCopy(const CompleteHst& tree) {
  auto copy = ParseHstSnapshot(SerializeHstSnapshot(tree));
  EXPECT_TRUE(copy.ok()) << copy.status();
  return std::make_shared<const CompleteHst>(std::move(copy).MoveValueUnsafe());
}

// A same-shape tree whose leaf assignment genuinely differs: the first
// two points trade leaves. Every re-keyed real report must move.
std::shared_ptr<const CompleteHst> SwapLeavesTree(const CompleteHst& tree) {
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

// A depth-2, arity-2 tree: a shape no BuildTree() tree has.
std::shared_ptr<const CompleteHst> OtherShapeTree() {
  std::vector<Point> points = {{0.0, 0.0}, {10.0, 0.0}};
  const LeafCodec codec(2, 2);
  std::vector<LeafCode> codes = {codec.Pack({char16_t{0}, char16_t{0}}),
                                 codec.Pack({char16_t{1}, char16_t{0}})};
  auto other = CompleteHst::FromParts(2, 2, 2.0, std::move(points),
                                      std::move(codes));
  EXPECT_TRUE(other.ok()) << other.status();
  return std::make_shared<const CompleteHst>(
      std::move(other).MoveValueUnsafe());
}

// A code naming a fake leaf (no predefined point lives there).
LeafCode FindFakeLeaf(const CompleteHst& tree) {
  const LeafCode leaf = tree.leaf_code_of_point(0);
  for (int level = tree.depth() - 1; level >= 0; --level) {
    for (int digit = 0; digit < tree.arity(); ++digit) {
      const LeafCode candidate = tree.codec()->WithDigit(leaf, level, digit);
      if (!tree.point_of_leaf(candidate).has_value()) return candidate;
    }
  }
  ADD_FAILURE() << "no fake leaf found";
  return leaf;
}

TEST(RepublishTest, ValidatesArguments) {
  auto tree = BuildTree();
  auto server = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(server.ok());

  auto null_result = (*server)->Republish(nullptr);
  ASSERT_FALSE(null_result.ok());
  EXPECT_EQ(null_result.status().code(), StatusCode::kInvalidArgument);

  // A different shape cannot host the live reports.
  auto mismatched = (*server)->Republish(OtherShapeTree());
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatched.status().message().find("must match the published"),
            std::string::npos)
      << mismatched.status();

  EXPECT_EQ((*server)->tree_epoch(), 0u);
}

// The golden zero-downtime contract: a republish of a bit-identical tree
// must not change a single draw. Two engines run the same randomized
// churn script; one republishes mid-stream, the other never does.
TEST(RepublishTest, NoopRepublishIsDrawForDrawEquivalent) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 4;
  options.seed = 99;
  auto with = ShardedTbfServer::Create(tree, options);
  auto without = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());

  const int depth = tree->depth();
  const int arity = tree->arity();
  Rng script(17);
  for (int step = 0; step < 400; ++step) {
    if (step == 150) {
      auto report = (*with)->Republish(SnapshotCopy(*tree));
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_EQ(report->tree_epoch, 1u);
    }
    const int op = static_cast<int>(script.UniformInt(0, 9));
    if (op < 4) {
      const std::string id = "w" + std::to_string(step);
      const LeafCode leaf =
          tree->codec()->Pack(RandomLeafPath(depth, arity, &script));
      Status a = (*with)->RegisterWorker(id, leaf, std::nullopt);
      Status b = (*without)->RegisterWorker(id, leaf, std::nullopt);
      ASSERT_EQ(a.code(), b.code()) << "step " << step;
    } else if (op < 5) {
      const std::string id =
          "w" + std::to_string(script.UniformInt(0, step));
      Status a = (*with)->UnregisterWorker(id);
      Status b = (*without)->UnregisterWorker(id);
      ASSERT_EQ(a.code(), b.code()) << "step " << step;
    } else {
      const std::string id = "t" + std::to_string(step);
      const LeafCode leaf =
          tree->codec()->Pack(RandomLeafPath(depth, arity, &script));
      auto a = (*with)->SubmitTask(id, leaf, std::nullopt);
      auto b = (*without)->SubmitTask(id, leaf, std::nullopt);
      ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
      if (a.ok()) {
        ASSERT_EQ(a->worker, b->worker) << "step " << step;
        ASSERT_DOUBLE_EQ(a->reported_tree_distance, b->reported_tree_distance)
            << "step " << step;
      }
    }
    ASSERT_EQ((*with)->available_workers(), (*without)->available_workers())
        << "step " << step;
  }
  EXPECT_EQ((*with)->tree_epoch(), 1u);
  EXPECT_EQ((*without)->tree_epoch(), 0u);
}

// Real-leaf reports follow their predefined point onto the new tree;
// fake-leaf reports keep their digits verbatim.
TEST(RepublishTest, RekeyFollowsPointsAndKeepsFakeLeaves) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 4;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());

  // One worker on point 0's real leaf, one on a fake leaf.
  const LeafCode real_leaf = tree->leaf_code_of_point(0);
  const LeafCode fake_leaf = FindFakeLeaf(*tree);
  ASSERT_TRUE((*server)->RegisterWorker("real", real_leaf, std::nullopt).ok());
  ASSERT_TRUE((*server)->RegisterWorker("fake", fake_leaf, std::nullopt).ok());

  auto new_tree = SwapLeavesTree(*tree);
  auto report = (*server)->Republish(new_tree);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->tree_epoch, 1u);
  EXPECT_EQ(report->workers_rekeyed, 2u);
  EXPECT_EQ(report->real_remapped, 1u);
  EXPECT_EQ(report->fake_kept, 1u);
  EXPECT_EQ(report->real_remapped + report->fake_kept,
            report->workers_rekeyed);
  EXPECT_EQ(report->shards_swapped, 4);

  // "real" reported point 0's leaf; on the new tree point 0 lives at the
  // old leaf of point 1 — a task submitted there must find the worker at
  // tree distance zero.
  const LeafCode moved_leaf = new_tree->leaf_code_of_point(0);
  EXPECT_TRUE(moved_leaf == tree->leaf_code_of_point(1));
  auto at_moved = (*server)->SubmitTask("t0", moved_leaf, std::nullopt);
  ASSERT_TRUE(at_moved.ok()) << at_moved.status();
  ASSERT_TRUE(at_moved->worker.has_value());
  EXPECT_EQ(*at_moved->worker, "real");
  EXPECT_DOUBLE_EQ(at_moved->reported_tree_distance, 0.0);

  // "fake" kept its digits: a task at the very same fake leaf matches it
  // at distance zero.
  auto at_fake = (*server)->SubmitTask("t1", fake_leaf, std::nullopt);
  ASSERT_TRUE(at_fake.ok()) << at_fake.status();
  ASSERT_TRUE(at_fake->worker.has_value());
  EXPECT_EQ(*at_fake->worker, "fake");
  EXPECT_DOUBLE_EQ(at_fake->reported_tree_distance, 0.0);
}

TEST(RepublishTest, MetricsAndEpochAccounting) {
  obs::MetricRegistry registry;
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 2;
  options.metrics = &registry;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)
                  ->RegisterWorker("w0", tree->leaf_code_of_point(3),
                                   std::nullopt)
                  .ok());

  ASSERT_TRUE((*server)->Republish(SnapshotCopy(*tree)).ok());
  ASSERT_TRUE((*server)->Republish(SwapLeavesTree(*tree)).ok());
  EXPECT_EQ((*server)->tree_epoch(), 2u);

  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("tbf_republish_started_total"), 2.0);
  EXPECT_EQ(snapshot.CounterValue("tbf_republish_rekeyed_workers_total"), 2.0);
  EXPECT_EQ(snapshot.CounterValue("tbf_republish_swapped_shards_total"), 4.0);
  EXPECT_EQ(snapshot.CounterValue("tbf_republish_aborted_total"), 0.0);
  const auto* epoch_gauge = snapshot.FindGauge("tbf_serve_tree_epoch");
  ASSERT_NE(epoch_gauge, nullptr);
  EXPECT_EQ(epoch_gauge->value, 2);
}

TEST(RepublishTest, TreeEpochGuardsStateRestore) {
  // An epoch-1 state restores onto the epoch-1 tree directly: no
  // republish runs in the fresh engine, and it then continues draw for
  // draw with the engine that republished. Worker codes are expressed in
  // that tree, so a tree of another shape is refused.
  auto tree = BuildTree();
  auto next = SwapLeavesTree(*tree);
  ShardedServerOptions options;
  options.num_shards = 2;
  obs::MetricRegistry registry;
  options.metrics = &registry;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  for (int p = 0; p < 6; ++p) {
    ASSERT_TRUE((*server)
                    ->RegisterWorker("w" + std::to_string(p),
                                     tree->leaf_code_of_point(p))
                    .ok());
  }
  ASSERT_TRUE((*server)->RegisterWorker("fake", FindFakeLeaf(*tree)).ok());
  ASSERT_TRUE((*server)->Republish(next).ok());
  const ShardedServerState state = (*server)->ExportState();
  EXPECT_EQ(state.tree_epoch, 1u);

  obs::MetricRegistry fresh_registry;
  options.metrics = &fresh_registry;
  auto fresh = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(fresh.ok());
  // The shape is checked even for a state without a worker code the
  // wrong tree could fail to validate.
  const ShardedServerState empty = (*fresh)->ExportState();
  for (const ShardedServerState* refused_state : {&state, &empty}) {
    for (auto refused_tree : {OtherShapeTree(),
                              std::shared_ptr<const CompleteHst>()}) {
      const Status refused =
          (*fresh)->RestoreState(*refused_state, refused_tree);
      EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;
      EXPECT_EQ((*fresh)->tree_epoch(), 0u);
      EXPECT_EQ((*fresh)->available_workers(), 0u);
      EXPECT_EQ(&(*fresh)->tree(), tree.get());
    }
  }

  ASSERT_TRUE((*fresh)->RestoreState(state, next).ok());
  EXPECT_EQ((*fresh)->tree_epoch(), 1u);
  EXPECT_EQ(&(*fresh)->tree(), next.get());
  EXPECT_EQ((*fresh)->available_workers(), (*server)->available_workers());
  const obs::MetricsSnapshot restored = fresh_registry.Snapshot();
  const auto* epoch_gauge = restored.FindGauge("tbf_serve_tree_epoch");
  ASSERT_NE(epoch_gauge, nullptr);
  EXPECT_EQ(epoch_gauge->value, 1);
  EXPECT_EQ(restored.CounterValue("tbf_republish_started_total"), 0.0);

  // Both engines now run the same script: same assignments, same state.
  for (int i = 0; i < 12; ++i) {
    const LeafCode code =
        next->leaf_code_of_point((i * 7) % next->num_points());
    if (i % 3 == 0) {
      const std::string id = "late" + std::to_string(i);
      ASSERT_TRUE((*server)->RegisterWorker(id, code).ok());
      ASSERT_TRUE((*fresh)->RegisterWorker(id, code).ok());
      continue;
    }
    const std::string task = "t" + std::to_string(i);
    auto a = (*server)->SubmitTask(task, code);
    auto b = (*fresh)->SubmitTask(task, code);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->worker, b->worker) << task;
    EXPECT_EQ(a->reported_tree_distance, b->reported_tree_distance) << task;
  }
  const ShardedServerState want = (*server)->ExportState();
  const ShardedServerState got = (*fresh)->ExportState();
  EXPECT_EQ(got.assigned_tasks, want.assigned_tasks);
  EXPECT_EQ(got.tree_epoch, want.tree_epoch);
  EXPECT_EQ(got.rng_state, want.rng_state);
  EXPECT_EQ(got.pool_size, want.pool_size);
  EXPECT_EQ(got.free_index_ids, want.free_index_ids);
  ASSERT_EQ(got.workers.size(), want.workers.size());
  for (size_t i = 0; i < want.workers.size(); ++i) {
    EXPECT_EQ(got.workers[i].id, want.workers[i].id);
    EXPECT_EQ(got.workers[i].code, want.workers[i].code);
    EXPECT_EQ(got.workers[i].index_id, want.workers[i].index_id);
    EXPECT_EQ(got.workers[i].shard, want.workers[i].shard);
  }
}

#ifndef TBF_FAULTS_DISABLED

TEST(RepublishTest, InjectedFaultAbortsWithEngineUntouched) {
  for (const char* site : {"republish.rekey", "republish.swap"}) {
    obs::MetricRegistry registry;
    auto tree = BuildTree();
    ShardedServerOptions options;
    options.num_shards = 2;
    options.metrics = &registry;
    auto server = ShardedTbfServer::Create(tree, options);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE(
        (*server)
            ->RegisterWorker("w0", tree->leaf_code_of_point(0), std::nullopt)
            .ok());
    const CompleteHst* published = &(*server)->tree();

    {
      fault::FaultSpec spec;
      spec.site = site;
      spec.kind = fault::FaultKind::kFail;
      spec.code = StatusCode::kIOError;
      fault::FaultPlan plan;
      plan.faults.push_back(spec);
      fault::ScopedFaultPlan armed(plan);

      auto aborted = (*server)->Republish(SwapLeavesTree(*tree));
      ASSERT_FALSE(aborted.ok()) << site;
      EXPECT_EQ(aborted.status().code(), StatusCode::kIOError) << site;
    }

    // The abort left the engine exactly as it was: same tree, same
    // epoch, worker still reachable at its original leaf.
    EXPECT_EQ(&(*server)->tree(), published) << site;
    EXPECT_EQ((*server)->tree_epoch(), 0u) << site;
    auto task = (*server)->SubmitTask("t0", tree->leaf_code_of_point(0),
                                      std::nullopt);
    ASSERT_TRUE(task.ok()) << site;
    ASSERT_TRUE(task->worker.has_value()) << site;
    EXPECT_EQ(*task->worker, "w0") << site;
    EXPECT_EQ(registry.Snapshot().CounterValue("tbf_republish_aborted_total"),
              1.0)
        << site;

    // With the fault cleared the same republish goes through.
    ASSERT_TRUE((*server)->Republish(SwapLeavesTree(*tree)).ok()) << site;
    EXPECT_EQ((*server)->tree_epoch(), 1u) << site;
  }
}

#endif  // TBF_FAULTS_DISABLED

// --- replay-loop schedule integration -----------------------------------

EventTrace SmallTrace(int workers = 80, int tasks = 40, uint64_t seed = 5) {
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

TEST(RepublishTest, ReplayValidatesSchedule) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace();

  ReplayOptions options;
  options.republishes.push_back({2, nullptr});
  EXPECT_FALSE(RunEventReplay(framework, trace, options).ok());

  options.republishes.clear();
  options.republishes.push_back({3, SnapshotCopy(framework.tree())});
  options.republishes.push_back({3, SnapshotCopy(framework.tree())});
  EXPECT_FALSE(RunEventReplay(framework, trace, options).ok());
}

// A schedule of bit-identical trees must not disturb the run, and the
// report must count every applied swap.
TEST(RepublishTest, ReplayAppliesScheduleWithoutDisturbingDraws) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(120, 80);

  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 4;
  options.lifetime_budget = 4.0;
  auto baseline = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->republishes, 0u);

  ReplayOptions scheduled = options;
  scheduled.republishes.push_back({2, SnapshotCopy(framework.tree())});
  scheduled.republishes.push_back({5, SnapshotCopy(framework.tree())});
  auto run = RunEventReplay(framework, trace, scheduled);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->republishes, 2u);

  EXPECT_EQ(run->assigned, baseline->assigned);
  EXPECT_EQ(run->unassigned, baseline->unassigned);
  EXPECT_EQ(run->denied, baseline->denied);
  EXPECT_EQ(run->registered, baseline->registered);
  EXPECT_EQ(run->available_workers_end, baseline->available_workers_end);
  ASSERT_EQ(run->task_outcomes.size(), baseline->task_outcomes.size());
  for (size_t i = 0; i < run->task_outcomes.size(); ++i) {
    EXPECT_EQ(run->task_outcomes[i].worker, baseline->task_outcomes[i].worker)
        << "task " << i;
  }
}

// A genuinely different (swapped-leaf) tree mid-replay: the run must
// stay deterministic (same schedule twice => identical reports) and keep
// the accounting identity intact.
TEST(RepublishTest, ReplayWithRealSwapIsDeterministic) {
  TbfFramework framework = BuildFramework();
  EventTrace trace = SmallTrace(120, 80);

  ReplayOptions options;
  options.epoch_seconds = 60.0;
  options.num_shards = 4;
  options.republishes.push_back({3, SwapLeavesTree(framework.tree())});

  auto a = RunEventReplay(framework, trace, options);
  auto b = RunEventReplay(framework, trace, options);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->republishes, 1u);
  EXPECT_EQ(a->assigned, b->assigned);
  EXPECT_EQ(a->unassigned, b->unassigned);
  ASSERT_EQ(a->task_outcomes.size(), b->task_outcomes.size());
  for (size_t i = 0; i < a->task_outcomes.size(); ++i) {
    EXPECT_EQ(a->task_outcomes[i].worker, b->task_outcomes[i].worker)
        << "task " << i;
  }
  // Outcome buckets still partition the processed events.
  EXPECT_TRUE(a->CheckAccountingIdentity().ok())
      << a->CheckAccountingIdentity().ToString();
}

}  // namespace
}  // namespace tbf
