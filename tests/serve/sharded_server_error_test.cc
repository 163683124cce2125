// Error-path contract tests for ShardedTbfServer (ISSUE 7, satellite c).
// Degraded operation is only trustworthy if the failure statuses are
// precise and the engine's shared state (worker registry, index-id pool,
// budget ledger) stays consistent across refused operations.

#include "serve/sharded_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "geo/grid.h"
#include "obs/metrics.h"
#include "serve/fixtures.h"

namespace tbf {
namespace {

LeafCode SomeLeaf(const CompleteHst& tree, uint64_t seed) {
  Rng rng(seed);
  return tree.codec()->Pack(RandomLeafPath(tree.depth(), tree.arity(), &rng));
}

TEST(ShardedServerErrorTest, UnregisterUnknownIsPreciseNotFound) {
  auto tree = BuildTree();
  auto server = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(server.ok());
  const Status s = (*server)->UnregisterWorker("ghost");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("unknown worker ghost"), std::string::npos);

  // Unregistering twice: the second call finds nothing.
  ASSERT_TRUE((*server)->RegisterWorker("w1", SomeLeaf(*tree, 1)).ok());
  ASSERT_TRUE((*server)->UnregisterWorker("w1").ok());
  EXPECT_EQ((*server)->UnregisterWorker("w1").code(), StatusCode::kNotFound);
  EXPECT_EQ((*server)->available_workers(), 0u);
}

TEST(ShardedServerErrorTest, EmptyWorkerIdIsRefusedBeforeAnyCharge) {
  // A worker row with an empty id does not restore (RestoreState refuses
  // it), so the engine never admits one: the export stays restorable.
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.epoch_budget = 1.0;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  const Status s = (*server)->RegisterWorker("", SomeLeaf(*tree, 1), 0.5);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("worker id must not be empty"), std::string::npos);
  EXPECT_EQ((*server)->ledger()->totals().charges, 0u);
  EXPECT_EQ((*server)->available_workers(), 0u);
  EXPECT_EQ((*server)->index_id_pool_size(), 0u);
}

#ifndef TBF_FAULTS_DISABLED

TEST(ShardedServerErrorTest, AdmissionRefusalIsShedBeforeAnyCharge) {
  // Both entry points share one admission check: a refusal at
  // "serve.admission" returns the site's status, counts one shed and
  // charges nothing, so the client can retry the same report.
  auto tree = BuildTree();
  obs::MetricRegistry registry;
  ShardedServerOptions options;
  options.epoch_budget = 1.0;
  options.metrics = &registry;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = "serve.admission";
  spec.kind = fault::FaultKind::kFail;
  spec.code = StatusCode::kResourceExhausted;
  spec.count = 2;
  plan.faults.push_back(spec);
  fault::ScopedFaultPlan armed(plan);
  ASSERT_TRUE(armed.armed());

  EXPECT_EQ((*server)->RegisterWorker("w", SomeLeaf(*tree, 1), 0.5).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ((*server)->SubmitTask("t", SomeLeaf(*tree, 2), 0.5)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(registry.Snapshot().CounterValue("tbf_robustness_shed_total"),
            2.0);
  EXPECT_EQ((*server)->ledger()->totals().charges, 0u);
  EXPECT_EQ((*server)->available_workers(), 0u);

  // The site is spent: the retried reports are admitted and charged.
  ASSERT_TRUE((*server)->RegisterWorker("w", SomeLeaf(*tree, 1), 0.5).ok());
  auto task = (*server)->SubmitTask("t", SomeLeaf(*tree, 2), 0.5);
  ASSERT_TRUE(task.ok()) << task.status();
  EXPECT_EQ(task->worker, "w");
  EXPECT_EQ((*server)->ledger()->totals().charges, 2u);
  EXPECT_EQ(registry.Snapshot().CounterValue("tbf_robustness_shed_total"),
            2.0);
}

#endif  // TBF_FAULTS_DISABLED

TEST(ShardedServerErrorTest, ReRegistrationRelocatesInsteadOfDuplicating) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 4;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());

  ASSERT_TRUE((*server)->RegisterWorker("w1", SomeLeaf(*tree, 1)).ok());
  // Same id again is a relocation, not an AlreadyExists error — and it
  // must not grow the pool or the available count.
  ASSERT_TRUE((*server)->RegisterWorker("w1", SomeLeaf(*tree, 2)).ok());
  EXPECT_EQ((*server)->available_workers(), 1u);
  EXPECT_EQ((*server)->index_id_pool_size(), 1u);
  EXPECT_TRUE((*server)->IsRegistered("w1"));
}

TEST(ShardedServerErrorTest, BudgetDenialLeavesRegistrationUntouched) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 4;
  options.lifetime_budget = 1.0;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());

  // Missing epsilon under enforcement is an InvalidArgument, not a crash
  // and not a silent free pass.
  const Status missing = (*server)->RegisterWorker("w1", SomeLeaf(*tree, 1));
  EXPECT_EQ(missing.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing.message().find("declare their epsilon"),
            std::string::npos);
  EXPECT_FALSE((*server)->IsRegistered("w1"));

  ASSERT_TRUE((*server)->RegisterWorker("w1", SomeLeaf(*tree, 1), 0.8).ok());
  // The relocation charge no longer fits: refused with the exact budget
  // code, and the worker stays available at its previous report.
  const Status refused =
      (*server)->RegisterWorker("w1", SomeLeaf(*tree, 2), 0.8);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE((*server)->IsRegistered("w1"));
  EXPECT_EQ((*server)->available_workers(), 1u);

  // SubmitTask whose own charge cannot fit: denied with the budget code,
  // and no worker is consumed by the refused submission.
  auto denied = (*server)->SubmitTask("t-denied", SomeLeaf(*tree, 3), 2.0);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*server)->available_workers(), 1u);
  EXPECT_EQ((*server)->assigned_tasks(), 0u);
  // A fresh task user with a fitting epsilon is still served.
  auto ok = (*server)->SubmitTask("t-ok", SomeLeaf(*tree, 4), 0.5);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_TRUE(ok->worker.has_value());
  EXPECT_EQ(*ok->worker, "w1");
  EXPECT_EQ((*server)->available_workers(), 0u);
}

TEST(ShardedServerErrorTest, SubmitWithEmptyPoolIsUnassignedNotAnError) {
  auto tree = BuildTree();
  auto server = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(server.ok());
  auto result = (*server)->SubmitTask("t1", SomeLeaf(*tree, 1));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->worker.has_value());
  EXPECT_EQ((*server)->assigned_tasks(), 0u);
}

TEST(ShardedServerErrorTest, IdPoolRecyclesThroughInterleavedFailures) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 4;
  options.lifetime_budget = 1.0;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());

  ASSERT_TRUE((*server)->RegisterWorker("a", SomeLeaf(*tree, 1), 0.4).ok());
  ASSERT_TRUE((*server)->RegisterWorker("b", SomeLeaf(*tree, 2), 0.4).ok());
  ASSERT_TRUE((*server)->RegisterWorker("c", SomeLeaf(*tree, 3), 0.4).ok());
  EXPECT_EQ((*server)->index_id_pool_size(), 3u);

  // Failures interleaved with churn: none of these may leak a pool slot.
  EXPECT_EQ((*server)->UnregisterWorker("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ((*server)->RegisterWorker("b", SomeLeaf(*tree, 4), 0.8).code(),
            StatusCode::kFailedPrecondition);  // relocation over budget
  EXPECT_EQ((*server)
                ->RegisterWorker("d", SomeLeaf(*tree, 5), 2.0)
                .code(),
            StatusCode::kFailedPrecondition);  // fresh id, denied: no slot
  EXPECT_EQ((*server)->index_id_pool_size(), 3u);

  // Departures free slots; new arrivals recycle them (pool stays at peak).
  ASSERT_TRUE((*server)->UnregisterWorker("a").ok());
  ASSERT_TRUE((*server)->UnregisterWorker("c").ok());
  ASSERT_TRUE((*server)->RegisterWorker("e", SomeLeaf(*tree, 6), 0.4).ok());
  ASSERT_TRUE((*server)->RegisterWorker("f", SomeLeaf(*tree, 7), 0.4).ok());
  EXPECT_EQ((*server)->index_id_pool_size(), 3u);
  EXPECT_EQ((*server)->available_workers(), 3u);

  // Assignment also releases the slot for reuse.
  auto assigned = (*server)->SubmitTask("t1", SomeLeaf(*tree, 8), 0.4);
  ASSERT_TRUE(assigned.ok());
  ASSERT_TRUE(assigned->worker.has_value());
  ASSERT_TRUE((*server)->RegisterWorker("g", SomeLeaf(*tree, 9), 0.4).ok());
  EXPECT_EQ((*server)->index_id_pool_size(), 3u);
}

TEST(ShardedServerErrorTest, BeginEpochMovesForwardOnly) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.epoch_budget = 0.5;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE((*server)->BeginEpoch(3).ok());
  const Status back = (*server)->BeginEpoch(2);
  EXPECT_EQ(back.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(back.message().find("epochs only move forward"),
            std::string::npos);
  EXPECT_TRUE((*server)->BeginEpoch(3).ok());  // re-entry is a no-op

  // Without an epoch budget the call is an explicit no-op, never an error.
  auto plain = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE((*plain)->BeginEpoch(7).ok());
  EXPECT_TRUE((*plain)->BeginEpoch(1).ok());
}

TEST(ShardedServerErrorTest, LifetimeOnlyBudgetDeniesAsLifetime) {
  // With only a lifetime cap there is no epoch cap to hit: the overspending
  // charge is a lifetime denial, in the status and in the ledger totals.
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.lifetime_budget = 1.0;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->RegisterWorker("w", SomeLeaf(*tree, 1), 0.6).ok());
  const Status refused =
      (*server)->RegisterWorker("w", SomeLeaf(*tree, 2), 0.6);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("lifetime budget exhausted"),
            std::string::npos)
      << refused.message();
  ASSERT_NE((*server)->ledger(), nullptr);
  EXPECT_EQ((*server)->ledger()->totals().denied_lifetime, 1u);
  EXPECT_EQ((*server)->ledger()->totals().denied_epoch, 0u);
}

TEST(ShardedServerErrorTest, EpochOnlyBudgetDeniesAsEpoch) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.epoch_budget = 0.5;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->RegisterWorker("w", SomeLeaf(*tree, 1), 0.3).ok());
  const Status refused =
      (*server)->RegisterWorker("w", SomeLeaf(*tree, 2), 0.3);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("epoch budget exhausted"),
            std::string::npos)
      << refused.message();
  ASSERT_NE((*server)->ledger(), nullptr);
  EXPECT_EQ((*server)->ledger()->totals().denied_epoch, 1u);
  EXPECT_EQ((*server)->ledger()->totals().denied_lifetime, 0u);
  // No lifetime cap: the next epoch admits the same spend again.
  ASSERT_TRUE((*server)->BeginEpoch(1).ok());
  EXPECT_TRUE((*server)->RegisterWorker("w", SomeLeaf(*tree, 2), 0.3).ok());
}

TEST(ShardedServerErrorTest, RestoreStateValidatesItsInput) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 4;
  auto source = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->RegisterWorker("w1", SomeLeaf(*tree, 1)).ok());
  const ShardedServerState good = (*source)->ExportState();

  // Restoring into a non-fresh engine is refused.
  {
    auto target = ShardedTbfServer::Create(tree, options);
    ASSERT_TRUE(target.ok());
    ASSERT_TRUE((*target)->RegisterWorker("other", SomeLeaf(*tree, 2)).ok());
    EXPECT_EQ((*target)->RestoreState(good, tree).code(),
              StatusCode::kFailedPrecondition);
  }

  // Ledger presence mismatch (different budget options).
  {
    ShardedServerOptions budgeted = options;
    budgeted.epoch_budget = 1.0;
    auto target = ShardedTbfServer::Create(tree, budgeted);
    ASSERT_TRUE(target.ok());
    EXPECT_EQ((*target)->RestoreState(good, tree).code(),
              StatusCode::kInvalidArgument);
  }

  // Corrupt free list / worker table entries are named, not crashed on.
  {
    auto target = ShardedTbfServer::Create(tree, options);
    ASSERT_TRUE(target.ok());
    ShardedServerState corrupt = good;
    corrupt.free_index_ids.push_back(1000);
    const Status s = (*target)->RestoreState(corrupt, tree);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("free id out of range"), std::string::npos);
  }
  {
    auto target = ShardedTbfServer::Create(tree, options);
    ASSERT_TRUE(target.ok());
    ShardedServerState corrupt = good;
    ASSERT_FALSE(corrupt.workers.empty());
    corrupt.workers[0].shard = 99;
    const Status s = (*target)->RestoreState(corrupt, tree);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("shard out of range"), std::string::npos);
  }

  // A CRC-valid state can still name a leaf the tree does not have, list a
  // worker twice, hand a live worker's index id out again, or file a
  // worker under a shard its leaf does not route to. Each is refused
  // before anything changes: the same engine then restores the good state.
  // With a non-power-of-two arity the all-ones digit field is no digit.
  const int bits = tree->codec()->bits_per_digit();
  const LeafCode field = (LeafCode{1} << bits) - 1;
  ASSERT_GT(static_cast<int>(field), tree->arity() - 1);
  const int top_shift = kLeafCodeBits - bits;
  const auto expect_refused = [&](const ShardedServerState& corrupt,
                                  const std::string& why) {
    auto target = ShardedTbfServer::Create(tree, options);
    ASSERT_TRUE(target.ok());
    const Status s = (*target)->RestoreState(corrupt, tree);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << why;
    EXPECT_NE(s.message().find(why), std::string::npos) << s.ToString();
    EXPECT_EQ((*target)->available_workers(), 0u) << why;
    EXPECT_TRUE((*target)->RestoreState(good, tree).ok()) << why;
  };
  {
    ShardedServerState corrupt = good;
    LeafCode& code = corrupt.workers[0].code;
    code |= field << top_shift;
    expect_refused(corrupt, "exceeds the published arity");
  }
  {
    ShardedServerState corrupt = good;
    corrupt.workers.push_back(corrupt.workers[0]);
    expect_refused(corrupt, "listed twice");
  }
  {
    ShardedServerState corrupt = good;
    corrupt.free_index_ids.push_back(corrupt.workers[0].index_id);
    expect_refused(corrupt, "which is already free or held");
    corrupt.free_index_ids.push_back(corrupt.workers[0].index_id);
    expect_refused(corrupt, "free id 0 listed twice");
  }
  {
    ShardedServerState corrupt = good;
    corrupt.workers[0].shard = (corrupt.workers[0].shard + 1) % 4;
    expect_refused(corrupt, "routes to shard");
  }
  // The held and free ids must partition [0, pool_size): a larger pool
  // leaves an id neither held nor free, and a smaller one leaves a held id
  // outside it.
  {
    ShardedServerState corrupt = good;
    ++corrupt.pool_size;
    expect_refused(corrupt, "leaves 1 neither held nor free");
    corrupt.pool_size = 0;
    expect_refused(corrupt, "holds an index id out of range");
  }
  {
    ShardedServerState corrupt = good;
    corrupt.workers.push_back(corrupt.workers[0]);
    corrupt.workers.back().id = "w2";
    expect_refused(corrupt,
                   "'w2' holds index id 0, which is already free or held");
  }
  {
    ShardedServerState corrupt = good;
    corrupt.workers[0].id.clear();
    expect_refused(corrupt, "a worker has an empty id");
  }

  // The untouched export still restores, and the restored engine behaves
  // like the original (same worker answers the same task).
  {
    auto target = ShardedTbfServer::Create(tree, options);
    ASSERT_TRUE(target.ok());
    ASSERT_TRUE((*target)->RestoreState(good, tree).ok());
    EXPECT_EQ((*target)->available_workers(), 1u);
    auto a = (*source)->SubmitTask("t", SomeLeaf(*tree, 3));
    auto b = (*target)->SubmitTask("t", SomeLeaf(*tree, 3));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->worker, b->worker);
  }
}

}  // namespace
}  // namespace tbf
