// TbfServerTest: the single-server contract of the online engine
// (ShardedTbfServer at its default K = 1) — lifecycle, id recycling,
// relocation, leaf-code validation and budget enforcement — checked call
// by call on small hand-written scripts. The
// reference-model golden tests in sharded_server_test.cc cover the same
// semantics on long random churn and across shard counts.

#include <gtest/gtest.h>

#include "core/hst_mechanism.h"
#include "geo/grid.h"
#include "serve/fixtures.h"
#include "serve/sharded_server.h"

namespace tbf {
namespace {

TEST(TbfServerTest, CreateValidates) {
  EXPECT_FALSE(ShardedTbfServer::Create(nullptr).ok());
  ShardedServerOptions bad;
  bad.lifetime_budget = 0.0;
  EXPECT_FALSE(ShardedTbfServer::Create(BuildTree(), bad).ok());
  auto server = ShardedTbfServer::Create(BuildTree());
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->num_shards(), 1);
  EXPECT_EQ((*server)->ledger(), nullptr);
}

TEST(TbfServerTest, RegisterSubmitLifecycle) {
  auto tree = BuildTree();
  auto created = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(created.ok());
  ShardedTbfServer& server = **created;
  ASSERT_TRUE(server.RegisterWorker("w1", tree->leaf_code_of_point(0)).ok());
  ASSERT_TRUE(server.RegisterWorker("w2", tree->leaf_code_of_point(20)).ok());
  EXPECT_EQ(server.available_workers(), 2u);
  EXPECT_TRUE(server.IsRegistered("w1"));

  auto dispatch = server.SubmitTask("t1", tree->leaf_code_of_point(1));
  ASSERT_TRUE(dispatch.ok());
  ASSERT_TRUE(dispatch->worker.has_value());
  EXPECT_EQ(*dispatch->worker, "w1");  // nearest on the tree
  EXPECT_EQ(server.available_workers(), 1u);
  EXPECT_EQ(server.assigned_tasks(), 1u);
  EXPECT_FALSE(server.IsRegistered("w1"));  // consumed

  auto second = server.SubmitTask("t2", tree->leaf_code_of_point(1));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->worker.has_value());
  EXPECT_EQ(*second->worker, "w2");

  auto drained = server.SubmitTask("t3", tree->leaf_code_of_point(1));
  ASSERT_TRUE(drained.ok());
  EXPECT_FALSE(drained->worker.has_value());
  EXPECT_EQ(server.assigned_tasks(), 2u);
}

TEST(TbfServerTest, IndexIdsAreRecycledAcrossAssignmentChurn) {
  auto tree = BuildTree();
  auto created = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(created.ok());
  ShardedTbfServer& server = **created;
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(server.RegisterWorker("a", tree->leaf_code_of_point(0)).ok());
    ASSERT_TRUE(server.RegisterWorker("b", tree->leaf_code_of_point(20)).ok());
    auto dispatch =
        server.SubmitTask("t" + std::to_string(round),
                          tree->leaf_code_of_point(1));
    ASSERT_TRUE(dispatch.ok());
    ASSERT_TRUE(dispatch->worker.has_value());
    ASSERT_TRUE(
        server.UnregisterWorker(*dispatch->worker == "a" ? "b" : "a").ok());
  }
  EXPECT_EQ(server.available_workers(), 0u);
  // Every removal path recycles its id: the pool is bounded by the peak of
  // two concurrent workers, not the 100 registrations performed.
  EXPECT_EQ(server.index_id_pool_size(), 2u);
}

TEST(TbfServerTest, RelocationMovesReport) {
  auto tree = BuildTree();
  auto created = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(created.ok());
  ShardedTbfServer& server = **created;
  ASSERT_TRUE(server.RegisterWorker("w", tree->leaf_code_of_point(0)).ok());
  // Relocate to the far corner.
  ASSERT_TRUE(server.RegisterWorker("w", tree->leaf_code_of_point(35)).ok());
  EXPECT_EQ(server.available_workers(), 1u);
  auto dispatch = server.SubmitTask("t", tree->leaf_code_of_point(35));
  ASSERT_TRUE(dispatch.ok());
  ASSERT_TRUE(dispatch->worker.has_value());
  EXPECT_EQ(*dispatch->worker, "w");
  EXPECT_DOUBLE_EQ(dispatch->reported_tree_distance, 0.0);
}

TEST(TbfServerTest, UnregisterRemoves) {
  auto tree = BuildTree();
  auto created = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(created.ok());
  ShardedTbfServer& server = **created;
  ASSERT_TRUE(server.RegisterWorker("w", tree->leaf_code_of_point(0)).ok());
  ASSERT_TRUE(server.UnregisterWorker("w").ok());
  EXPECT_EQ(server.available_workers(), 0u);
  EXPECT_FALSE(server.IsRegistered("w"));
  EXPECT_EQ(server.UnregisterWorker("w").code(), StatusCode::kNotFound);
}

TEST(TbfServerTest, RejectsWrongDepthLeaves) {
  auto tree = BuildTree();
  auto created = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(created.ok());
  ShardedTbfServer& server = **created;
  // A set bit below the last digit names a leaf deeper than the tree.
  const int low = tree->codec()->low_bits();
  const LeafCode bad = tree->leaf_code_of_point(0) | (LeafCode{1} << (low - 1));
  EXPECT_FALSE(server.RegisterWorker("w", bad).ok());
  EXPECT_FALSE(server.SubmitTask("t", bad).ok());
  EXPECT_EQ(server.available_workers(), 0u);
}

TEST(TbfServerTest, RejectsOutOfRangeDigits) {
  // Untrusted client input: right depth, digits beyond the published
  // arity. Must be refused cleanly, not abort or corrupt the index.
  auto tree = BuildTree();
  auto created = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(created.ok());
  ShardedTbfServer& server = **created;
  ASSERT_NE(tree->arity() & (tree->arity() - 1), 0)
      << "every field of a power-of-two arity is a valid digit";
  LeafCode bogus = 0;
  for (int d = 0; d < tree->depth(); ++d) {
    bogus = tree->codec()->WithDigit(bogus, d, tree->arity());
  }
  EXPECT_FALSE(server.RegisterWorker("evil", bogus).ok());
  EXPECT_FALSE(server.IsRegistered("evil"));
  ASSERT_TRUE(server.RegisterWorker("w", tree->leaf_code_of_point(0)).ok());
  auto dispatch = server.SubmitTask("t", bogus);
  EXPECT_FALSE(dispatch.ok());
  EXPECT_EQ(server.available_workers(), 1u);  // pool untouched
}

TEST(TbfServerTest, BudgetEnforcement) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.lifetime_budget = 0.5;
  auto created = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(created.ok());
  ShardedTbfServer& server = **created;
  ASSERT_NE(server.ledger(), nullptr);

  // Must declare epsilon under enforcement.
  EXPECT_EQ(server.RegisterWorker("w", tree->leaf_code_of_point(0)).code(),
            StatusCode::kInvalidArgument);
  // Two reports of 0.2 fit; a third exceeds 0.5.
  EXPECT_TRUE(
      server.RegisterWorker("w", tree->leaf_code_of_point(0), 0.2).ok());
  EXPECT_TRUE(
      server.RegisterWorker("w", tree->leaf_code_of_point(1), 0.2).ok());
  Status third = server.RegisterWorker("w", tree->leaf_code_of_point(2), 0.2);
  EXPECT_EQ(third.code(), StatusCode::kFailedPrecondition);
  // The refused relocation left the previous registration intact.
  EXPECT_EQ(server.available_workers(), 1u);
  auto dispatch = server.SubmitTask("t", tree->leaf_code_of_point(1), 0.2);
  ASSERT_TRUE(dispatch.ok());
  ASSERT_TRUE(dispatch->worker.has_value());
  EXPECT_EQ(*dispatch->worker, "w");
  EXPECT_DOUBLE_EQ(dispatch->reported_tree_distance, 0.0);
}

TEST(TbfServerTest, EndToEndWithMechanism) {
  // Full workflow: publish tree, clients obfuscate with the mechanism, the
  // server dispatches — nothing but leaves crosses the trust boundary.
  auto tree = BuildTree();
  auto mechanism_result = HstMechanism::Build(*tree, 0.4);
  ASSERT_TRUE(mechanism_result.ok());
  const HstMechanism& mechanism = *mechanism_result;
  auto created = ShardedTbfServer::Create(tree);
  ASSERT_TRUE(created.ok());
  ShardedTbfServer& server = **created;

  Rng rng(21);
  for (int w = 0; w < 20; ++w) {
    Point loc{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const LeafCode reported =
        mechanism.ObfuscateCodeWalk(tree->MapToNearestLeafCode(loc), &rng);
    std::string id = "w";
    id += std::to_string(w);
    ASSERT_TRUE(server.RegisterWorker(id, reported).ok());
  }
  size_t assigned = 0;
  for (int t = 0; t < 10; ++t) {
    Point loc{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const LeafCode reported =
        mechanism.ObfuscateCodeWalk(tree->MapToNearestLeafCode(loc), &rng);
    std::string id = "t";
    id += std::to_string(t);
    auto dispatch = server.SubmitTask(id, reported);
    ASSERT_TRUE(dispatch.ok());
    if (dispatch->worker) ++assigned;
  }
  EXPECT_EQ(assigned, 10u);
  EXPECT_EQ(server.available_workers(), 10u);
}

}  // namespace
}  // namespace tbf
