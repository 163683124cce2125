#include "serve/sharded_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "geo/grid.h"
#include "serve/checkpoint.h"
#include "serve/fixtures.h"
#include "serve/reference_server.h"

namespace tbf {
namespace {

// The engine speaks packed codes; the cases below build digit paths (the
// reference model's language) and pack them at the call.
LeafCode Code(const CompleteHst& tree, const LeafPath& leaf) {
  return tree.codec()->Pack(leaf);
}

TEST(ShardedServerTest, CreateValidates) {
  auto tree = BuildTree();
  EXPECT_FALSE(ShardedTbfServer::Create(nullptr).ok());

  ShardedServerOptions bad_budget;
  bad_budget.lifetime_budget = 0.0;
  EXPECT_FALSE(ShardedTbfServer::Create(tree, bad_budget).ok());
  bad_budget.lifetime_budget = std::nan("");
  EXPECT_FALSE(ShardedTbfServer::Create(tree, bad_budget).ok());
  bad_budget.lifetime_budget = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ShardedTbfServer::Create(tree, bad_budget).ok());
  bad_budget.lifetime_budget = std::nullopt;
  bad_budget.epoch_budget = -1.0;
  EXPECT_FALSE(ShardedTbfServer::Create(tree, bad_budget).ok());
  bad_budget.epoch_budget = std::nan("");
  EXPECT_FALSE(ShardedTbfServer::Create(tree, bad_budget).ok());
  bad_budget.epoch_budget = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ShardedTbfServer::Create(tree, bad_budget).ok());

  ShardedServerOptions bad_shards;
  bad_shards.num_shards = 0;
  EXPECT_FALSE(ShardedTbfServer::Create(tree, bad_shards).ok());
  bad_shards.num_shards = 1 << 30;  // far beyond arity^depth
  EXPECT_FALSE(ShardedTbfServer::Create(tree, bad_shards).ok());

  ShardedServerOptions uniform_sharded;
  uniform_sharded.tie_break = HstTieBreak::kUniformRandom;
  uniform_sharded.num_shards = 2;
  EXPECT_FALSE(ShardedTbfServer::Create(tree, uniform_sharded).ok());
  uniform_sharded.num_shards = 1;
  EXPECT_TRUE(ShardedTbfServer::Create(tree, uniform_sharded).ok());

  ShardedServerOptions good;
  good.num_shards = 8;
  EXPECT_TRUE(ShardedTbfServer::Create(tree, good).ok());
}

// Report leaves for the churn scripts. Half come from six hot leaves, so
// co-located workers tie and the index-id order (the LIFO free list)
// decides between them; the rest are uniform over all leaves.
class ChurnLeaves {
 public:
  ChurnLeaves(const CompleteHst& tree, Rng* script)
      : depth_(tree.depth()), arity_(tree.arity()), script_(script) {
    for (int i = 0; i < 6; ++i) {
      hot_.push_back(RandomLeafPath(depth_, arity_, script_));
    }
  }

  LeafPath Next() {
    if (script_->UniformInt(0, 1) == 0) {
      return hot_[static_cast<size_t>(script_->UniformInt(0, 5))];
    }
    return RandomLeafPath(depth_, arity_, script_);
  }

 private:
  int depth_;
  int arity_;
  Rng* script_;
  std::vector<LeafPath> hot_;
};

// Replays an identical randomized churn script (registrations,
// relocations, departures, submissions — budgeted or not) into the
// reference model (serve/reference_server.h) and the engine, asserting
// draw-for-draw identical behavior at every step. This is the golden
// equivalence contract: sharding is an implementation strategy, not a
// semantics change. Neither is a checkpoint: every 50 steps the engine is
// serialized, parsed and restored into a fresh one that carries on.
void RunGoldenChurn(int num_shards, HstTieBreak tie_break,
                    std::optional<double> lifetime_budget, uint64_t seed) {
  SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
  auto tree = BuildTree();
  ReferenceServer model(tree, tie_break, 99, lifetime_budget);

  ShardedServerOptions sharded_options;
  sharded_options.num_shards = num_shards;
  sharded_options.tie_break = tie_break;
  sharded_options.seed = 99;
  sharded_options.lifetime_budget = lifetime_budget;
  auto created = ShardedTbfServer::Create(tree, sharded_options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<ShardedTbfServer> sharded =
      std::move(created).MoveValueUnsafe();

  Rng script(seed);
  ChurnLeaves leaves(*tree, &script);
  const std::optional<double> eps =
      lifetime_budget ? std::optional<double>(0.3) : std::nullopt;
  std::vector<std::string> known_workers;
  int next_worker = 0;
  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(script.UniformInt(0, 9));
    if (op < 4) {  // fresh registration
      std::string id = "w" + std::to_string(next_worker++);
      LeafPath leaf = leaves.Next();
      Status a = model.RegisterWorker(id, leaf, eps);
      Status b = sharded->RegisterWorker(id, Code(*tree, leaf), eps);
      ASSERT_EQ(a.code(), b.code()) << "step " << step;
      if (a.ok()) known_workers.push_back(id);
    } else if (op < 5 && !known_workers.empty()) {  // relocation
      const std::string& id = known_workers[static_cast<size_t>(
          script.UniformInt(0, static_cast<int64_t>(known_workers.size()) - 1))];
      LeafPath leaf = leaves.Next();
      Status a = model.RegisterWorker(id, leaf, eps);
      Status b = sharded->RegisterWorker(id, Code(*tree, leaf), eps);
      ASSERT_EQ(a.code(), b.code()) << "step " << step;
    } else if (op < 6 && !known_workers.empty()) {  // departure
      const std::string& id = known_workers[static_cast<size_t>(
          script.UniformInt(0, static_cast<int64_t>(known_workers.size()) - 1))];
      Status a = model.UnregisterWorker(id);
      Status b = sharded->UnregisterWorker(id);
      ASSERT_EQ(a.code(), b.code()) << "step " << step;
    } else {  // task submission
      std::string id = "t" + std::to_string(step);
      LeafPath leaf = leaves.Next();
      auto a = model.SubmitTask(id, leaf, eps);
      auto b = sharded->SubmitTask(id, Code(*tree, leaf), eps);
      ASSERT_EQ(a.status().code(), b.status().code()) << "step " << step;
      if (a.ok()) {
        ASSERT_EQ(a->worker, b->worker) << "step " << step;
        ASSERT_DOUBLE_EQ(a->reported_tree_distance, b->reported_tree_distance)
            << "step " << step;
      }
    }
    ASSERT_EQ(model.available_workers(), sharded->available_workers())
        << "step " << step;
    ASSERT_EQ(model.assigned_tasks(), sharded->assigned_tasks());
    // The shared id pool recycles exactly like the model's LIFO list.
    ASSERT_EQ(model.index_id_pool_size(), sharded->index_id_pool_size());
    // Every 50 steps the churn moves to a fresh engine restored from the
    // checkpoint codec's bytes: the slot table, the free-list order, the
    // ledger and the tie-break RNG must carry on draw for draw.
    if (step % 50 == 49) {
      ReplayCheckpoint checkpoint;
      checkpoint.server = sharded->ExportState();
      auto parsed =
          ParseReplayCheckpoint(SerializeReplayCheckpoint(checkpoint));
      ASSERT_TRUE(parsed.ok()) << "step " << step << ": " << parsed.status();
      auto restored = ShardedTbfServer::Create(tree, sharded_options);
      ASSERT_TRUE(restored.ok());
      const Status status = (*restored)->RestoreState(parsed->server, tree);
      ASSERT_TRUE(status.ok()) << "step " << step << ": " << status;
      sharded = std::move(restored).MoveValueUnsafe();
    }
  }
  // The workers remaining available agree one by one.
  for (const std::string& id : known_workers) {
    EXPECT_EQ(model.IsRegistered(id), sharded->IsRegistered(id)) << id;
  }
}

TEST(ShardedServerTest, GoldenEquivalenceSingleShard) {
  RunGoldenChurn(1, HstTieBreak::kCanonical, std::nullopt, 5);
}

TEST(ShardedServerTest, GoldenEquivalenceSingleShardUniformTieBreak) {
  // Uniform-random tie-breaking draws from the engine rng; at K = 1 the
  // draw sequence must match the model's map index exactly.
  RunGoldenChurn(1, HstTieBreak::kUniformRandom, std::nullopt, 6);
}

TEST(ShardedServerTest, GoldenEquivalenceManyShards) {
  for (int shards : {2, 3, 4, 8}) {
    RunGoldenChurn(shards, HstTieBreak::kCanonical, std::nullopt,
                   100 + static_cast<uint64_t>(shards));
  }
}

TEST(ShardedServerTest, GoldenEquivalenceManyShardsWithBudgets) {
  for (int shards : {1, 2, 3, 4, 8}) {
    RunGoldenChurn(shards, HstTieBreak::kCanonical, 0.9, 21);
  }
}

TEST(ShardedServerTest, CodeEntryPointIsGoldenEquivalentAcrossShards) {
  // Same churn script, the model fed LeafPaths and the engine fed packed
  // LeafCodes: the representation must not change one assignment.
  auto tree = BuildTree();
  const LeafCodec* codec = tree->codec();
  for (int shards : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    ReferenceServer model(tree);
    ShardedServerOptions options;
    options.num_shards = shards;
    auto sharded = ShardedTbfServer::Create(tree, options);
    ASSERT_TRUE(sharded.ok());

    Rng script(77);
    ChurnLeaves leaves(*tree, &script);
    int next_worker = 0;
    for (int step = 0; step < 400; ++step) {
      const int op = static_cast<int>(script.UniformInt(0, 9));
      LeafPath leaf = leaves.Next();
      const LeafCode code = codec->Pack(leaf);
      if (op < 5) {
        std::string id = "w" + std::to_string(next_worker++);
        ASSERT_EQ(model.RegisterWorker(id, leaf).code(),
                  (*sharded)->RegisterWorker(id, code).code())
            << "step " << step;
      } else {
        std::string id = "t" + std::to_string(step);
        auto a = model.SubmitTask(id, leaf);
        auto b = (*sharded)->SubmitTask(id, code);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_EQ(a->worker, b->worker) << "step " << step;
        ASSERT_DOUBLE_EQ(a->reported_tree_distance, b->reported_tree_distance);
      }
      ASSERT_EQ(model.available_workers(), (*sharded)->available_workers());
    }
  }
}

TEST(ShardedServerTest, CrossShardResolutionFindsTheGlobalNearest) {
  // Construct a task whose home shard is empty: the engine must fan out
  // and return the canonical nearest across the other shards, exactly as
  // a global index would.
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = tree->arity();  // prefix_depth == 1: shard == digit 0
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  ReferenceServer model(tree);

  const int depth = tree->depth();
  const int arity = tree->arity();
  Rng rng(31);
  for (int w = 0; w < 40; ++w) {
    LeafPath leaf = RandomLeafPath(depth, arity, &rng);
    // Keep the whole pool out of subtree 0.
    if (leaf[0] == 0) leaf[0] = 1;
    std::string id = "w" + std::to_string(w);
    ASSERT_TRUE((*server)->RegisterWorker(id, Code(*tree, leaf)).ok());
    ASSERT_TRUE(model.RegisterWorker(id, leaf).ok());
  }
  EXPECT_EQ((*server)->shard_size(0), 0u);
  for (int t = 0; t < 40; ++t) {
    LeafPath leaf = RandomLeafPath(depth, arity, &rng);
    leaf[0] = 0;  // home shard 0 is empty: always the slow path
    std::string id = "t" + std::to_string(t);
    auto a = model.SubmitTask(id, leaf);
    auto b = (*server)->SubmitTask(id, Code(*tree, leaf));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->worker, b->worker) << "task " << t;
  }
}

TEST(ShardedServerTest, ShardSizesPartitionThePool) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 5;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  Rng rng(41);
  for (int w = 0; w < 120; ++w) {
    ASSERT_TRUE((*server)
                    ->RegisterWorker("w" + std::to_string(w),
                                     Code(*tree, RandomLeafPath(tree->depth(),
                                                                tree->arity(),
                                                                &rng)))
                    .ok());
  }
  size_t total = 0;
  for (int s = 0; s < 5; ++s) total += (*server)->shard_size(s);
  EXPECT_EQ(total, 120u);
  EXPECT_EQ((*server)->available_workers(), 120u);
}

TEST(ShardedServerTest, EpochBudgetRollsOverPerUser) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.epoch_budget = 0.4;
  options.lifetime_budget = 1.0;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  const LeafCode leaf = tree->leaf_code_of_point(0);

  // Epoch 0: two reports of 0.2 fit, the third hits the epoch cap.
  EXPECT_TRUE((*server)->RegisterWorker("w", leaf, 0.2).ok());
  EXPECT_TRUE((*server)->RegisterWorker("w", leaf, 0.2).ok());
  EXPECT_EQ((*server)->RegisterWorker("w", leaf, 0.2).code(),
            StatusCode::kFailedPrecondition);
  // The refused relocation left the previous registration intact.
  EXPECT_TRUE((*server)->IsRegistered("w"));

  // Epoch 1: headroom is back, but the lifetime cap keeps composing.
  ASSERT_TRUE((*server)->BeginEpoch(1).ok());
  EXPECT_TRUE((*server)->RegisterWorker("w", leaf, 0.4).ok());
  ASSERT_TRUE((*server)->BeginEpoch(2).ok());
  EXPECT_TRUE((*server)->RegisterWorker("w", leaf, 0.2).ok());
  EXPECT_EQ((*server)->RegisterWorker("w", leaf, 0.2).code(),
            StatusCode::kFailedPrecondition);  // lifetime 1.0 exhausted
  EXPECT_EQ((*server)->BeginEpoch(1).code(), StatusCode::kInvalidArgument);

  // Reports must declare an epsilon under enforcement.
  EXPECT_EQ((*server)->RegisterWorker("x", leaf).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedServerTest, RejectsInvalidLeaves) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 4;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  const LeafCodec& codec = *tree->codec();
  // A code with bits below the last digit names no leaf.
  const LeafCode stray = tree->leaf_code_of_point(0) | 1;
  EXPECT_FALSE((*server)->RegisterWorker("w", stray).ok());
  EXPECT_FALSE((*server)->SubmitTask("t", stray).ok());
  if ((tree->arity() & (tree->arity() - 1)) != 0) {
    // Digit fields holding `arity` are out of range.
    LeafCode bogus = 0;
    for (int d = 0; d < tree->depth(); ++d) {
      bogus = codec.WithDigit(bogus, d, tree->arity());
    }
    EXPECT_FALSE((*server)->RegisterWorker("w", bogus).ok());
    EXPECT_FALSE((*server)->SubmitTask("t", bogus).ok());
  }
  EXPECT_EQ((*server)->available_workers(), 0u);
}

TEST(ShardedServerTest, RandomTieBreakStillNearest) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.tie_break = HstTieBreak::kUniformRandom;
  options.seed = 9;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  // Two co-located workers, one far: dispatch must pick a co-located one.
  ASSERT_TRUE(
      (*server)->RegisterWorker("near1", tree->leaf_code_of_point(7)).ok());
  ASSERT_TRUE(
      (*server)->RegisterWorker("near2", tree->leaf_code_of_point(7)).ok());
  ASSERT_TRUE(
      (*server)->RegisterWorker("far", tree->leaf_code_of_point(35)).ok());
  auto dispatch = (*server)->SubmitTask("t", tree->leaf_code_of_point(7));
  ASSERT_TRUE(dispatch.ok());
  EXPECT_NE(*dispatch->worker, "far");
  EXPECT_DOUBLE_EQ(dispatch->reported_tree_distance, 0.0);
}

TEST(ShardedServerTest, RandomTieBreakIsUniformAcrossRuns) {
  auto tree = BuildTree();
  std::map<std::string, int> counts;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    ShardedServerOptions options;
    options.tie_break = HstTieBreak::kUniformRandom;
    options.seed = seed;
    auto server = ShardedTbfServer::Create(tree, options);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE(
        (*server)->RegisterWorker("a", tree->leaf_code_of_point(7)).ok());
    ASSERT_TRUE(
        (*server)->RegisterWorker("b", tree->leaf_code_of_point(7)).ok());
    auto dispatch = (*server)->SubmitTask("t", tree->leaf_code_of_point(7));
    ASSERT_TRUE(dispatch.ok());
    ++counts[*dispatch->worker];
  }
  EXPECT_NEAR(counts["a"] / 2000.0, 0.5, 0.05);
}

TEST(ShardedServerTest, ReportedTreeDistanceMatchesLeaves) {
  auto tree = BuildTree();
  for (int shards : {1, 4}) {
    ShardedServerOptions options;
    options.num_shards = shards;
    auto server = ShardedTbfServer::Create(tree, options);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE(
        (*server)->RegisterWorker("w", tree->leaf_code_of_point(5)).ok());
    auto dispatch = (*server)->SubmitTask("t", tree->leaf_code_of_point(30));
    ASSERT_TRUE(dispatch.ok());
    EXPECT_DOUBLE_EQ(dispatch->reported_tree_distance,
                     tree->TreeDistance(tree->leaf_code_of_point(30),
                                        tree->leaf_code_of_point(5)))
        << "shards=" << shards;
  }
}

TEST(ShardedServerTest, TasksSpendBudgetToo) {
  auto tree = BuildTree();
  for (int shards : {1, 4}) {
    ShardedServerOptions options;
    options.num_shards = shards;
    options.lifetime_budget = 0.3;
    auto server = ShardedTbfServer::Create(tree, options);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE(
        (*server)->RegisterWorker("w", tree->leaf_code_of_point(0), 0.3).ok());
    EXPECT_TRUE(
        (*server)->SubmitTask("rider", tree->leaf_code_of_point(0), 0.3).ok());
    // Same task id again: budget gone.
    auto refused =
        (*server)->SubmitTask("rider", tree->leaf_code_of_point(0), 0.3);
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
        << "shards=" << shards;
  }
}

TEST(ShardedServerTest, RejectsMalformedLeafCodes) {
  auto tree = BuildTree();
  const LeafCodec* codec = tree->codec();
  ShardedServerOptions options;
  options.num_shards = 4;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  const LeafCode good = tree->leaf_code_of_point(0);
  ASSERT_TRUE(codec->Validate(good).ok());

  const int low = codec->low_bits();
  if (low > 0) {
    // Stray bits below the last digit name no leaf: rejected, not aborted.
    EXPECT_FALSE((*server)->RegisterWorker("w", good | 1).ok());
    EXPECT_FALSE((*server)->SubmitTask("t", good | 1).ok());
  }
  if ((tree->arity() & (tree->arity() - 1)) != 0) {
    // Non-power-of-two arity: a field holding `arity` is out of range.
    const LeafCode bad = codec->WithDigit(good, 0, tree->arity());
    EXPECT_FALSE((*server)->RegisterWorker("w", bad).ok());
  }
  EXPECT_EQ((*server)->available_workers(), 0u);
}

TEST(ShardedServerTest, BatchRegisterSkipsOnlyFailedItems) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 4;
  options.lifetime_budget = 1.0;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());

  // A refused registration (no declared epsilon under a budget, stray
  // bits below the last digit) leaves the registrations around it intact.
  ShardedTbfServer& s = **server;
  EXPECT_TRUE(s.RegisterWorker("a", tree->leaf_code_of_point(0), 0.5).ok());
  EXPECT_FALSE(s.RegisterWorker("b", tree->leaf_code_of_point(1)).ok());
  EXPECT_FALSE(s.RegisterWorker("c", tree->leaf_code_of_point(2) | 1, 0.5).ok());
  EXPECT_TRUE(s.RegisterWorker("d", tree->leaf_code_of_point(2), 0.5).ok());
  EXPECT_EQ(s.available_workers(), 2u);
  EXPECT_TRUE(s.IsRegistered("a"));
  EXPECT_FALSE(s.IsRegistered("b"));
  EXPECT_FALSE(s.IsRegistered("c"));
  EXPECT_TRUE(s.IsRegistered("d"));
}

TEST(ShardedServerTest, ConcurrentChurnKeepsInvariants) {
  // Hammer the engine from several threads. The engine promises
  // linearizable operations: every worker is assigned at most once, every
  // dispatched worker was actually registered, and the final counters add
  // up. (Exact assignments are interleaving-dependent here — determinism
  // is a single-driver property.)
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.num_shards = 8;
  auto server = ShardedTbfServer::Create(tree, options);
  ASSERT_TRUE(server.ok());
  ShardedTbfServer* engine = server->get();

  const int kThreads = 8;
  const int kWorkersPerThread = 300;
  const int kTasksPerThread = 200;
  const int depth = tree->depth();
  const int arity = tree->arity();

  std::vector<std::vector<std::string>> dispatched(
      static_cast<size_t>(kThreads));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  // Relocations land before any task is submitted: a relocating
  // re-registration racing another thread's dispatch of the same worker
  // would legitimately re-register an already assigned worker. Every
  // other registration still races the mixed wave.
  std::barrier relocated(kThreads);
  for (int thread_index = 0; thread_index < kThreads; ++thread_index) {
    threads.emplace_back([&, thread_index] {
      Rng rng(1000 + static_cast<uint64_t>(thread_index));
      const std::string prefix = "p" + std::to_string(thread_index) + "-";
      auto register_worker = [&](int w) {
        std::string id = prefix + "w" + std::to_string(w);
        if (!engine
                 ->RegisterWorker(
                     id, Code(*tree, RandomLeafPath(depth, arity, &rng)))
                 .ok()) {
          ++failures;
        }
        // Every 10th worker is registered twice, the second time a
        // relocation.
        if (w % 10 == 0 &&
            !engine
                 ->RegisterWorker(
                     id, Code(*tree, RandomLeafPath(depth, arity, &rng)))
                 .ok()) {
          ++failures;
        }
      };
      for (int w = 0; w < kWorkersPerThread; w += 10) register_worker(w);
      relocated.arrive_and_wait();
      // Registration wave for the rest, racing other threads' tasks.
      for (int w = 0; w < kWorkersPerThread; ++w) {
        if (w % 10 != 0) register_worker(w);
      }
      // Mixed wave: submissions racing departures.
      for (int t = 0; t < kTasksPerThread; ++t) {
        std::string id = prefix + "t" + std::to_string(t);
        auto result = engine->SubmitTask(
            id, Code(*tree, RandomLeafPath(depth, arity, &rng)));
        if (!result.ok()) {
          ++failures;
        } else if (result->worker) {
          dispatched[static_cast<size_t>(thread_index)].push_back(
              *result->worker);
        }
        if (t % 7 == 0) {
          // Departure of a random own worker; NotFound (already assigned)
          // is expected churn, anything else would be a bug.
          std::string worker = prefix + "w" +
                               std::to_string(rng.UniformInt(
                                   0, kWorkersPerThread - 1));
          Status status = engine->UnregisterWorker(worker);
          if (!status.ok() && status.code() != StatusCode::kNotFound) {
            ++failures;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // No worker dispatched twice, and none of them is still registered.
  std::set<std::string> all_dispatched;
  size_t total_dispatched = 0;
  for (const auto& lane : dispatched) {
    for (const std::string& worker : lane) {
      EXPECT_TRUE(all_dispatched.insert(worker).second)
          << worker << " assigned twice";
      EXPECT_FALSE(engine->IsRegistered(worker));
      ++total_dispatched;
    }
  }
  EXPECT_EQ(engine->assigned_tasks(), total_dispatched);
  // Shard sizes still partition the pool.
  size_t shard_total = 0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    shard_total += engine->shard_size(s);
  }
  EXPECT_EQ(shard_total, engine->available_workers());
  // The id pool stays bounded by the peak concurrent registrations.
  EXPECT_LE(engine->index_id_pool_size(),
            static_cast<size_t>(kThreads * kWorkersPerThread));
}

}  // namespace
}  // namespace tbf
