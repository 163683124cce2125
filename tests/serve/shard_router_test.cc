#include "serve/shard_router.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"

namespace tbf {
namespace {

// Routes a digit path through the router's packed-code entry point.
int ShardOf(const ShardRouter& router, const LeafPath& leaf) {
  const LeafCodec codec(router.depth(), router.arity());
  return router.ShardOf(codec.Pack(leaf), codec);
}

TEST(ShardRouterTest, SingleShardConsultsNoDigits) {
  ShardRouter router(6, 4, 1);
  EXPECT_EQ(router.prefix_depth(), 0);
  EXPECT_EQ(router.cutoff_level(), 6);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ShardOf(router, RandomLeafPath(6, 4, &rng)), 0);
  }
}

TEST(ShardRouterTest, PrefixDepthIsMinimal) {
  EXPECT_EQ(ShardRouter(6, 4, 2).prefix_depth(), 1);
  EXPECT_EQ(ShardRouter(6, 4, 4).prefix_depth(), 1);
  EXPECT_EQ(ShardRouter(6, 4, 5).prefix_depth(), 2);
  EXPECT_EQ(ShardRouter(6, 4, 16).prefix_depth(), 2);
  EXPECT_EQ(ShardRouter(6, 2, 8).prefix_depth(), 3);
  EXPECT_EQ(ShardRouter(6, 4, 16).cutoff_level(), 4);
}

TEST(ShardRouterTest, FitsBoundsTheShardCount) {
  EXPECT_TRUE(ShardRouter::Fits(3, 2, 8));   // 2^3 prefixes
  EXPECT_FALSE(ShardRouter::Fits(3, 2, 9));  // more shards than prefixes
  EXPECT_FALSE(ShardRouter::Fits(3, 2, 0));
  EXPECT_TRUE(ShardRouter::Fits(0, 2, 1));   // degenerate tree, one shard
  EXPECT_FALSE(ShardRouter::Fits(0, 2, 2));
  EXPECT_TRUE(ShardRouter::Fits(64, 2, 1 << 30));  // no overflow
}

TEST(ShardRouterTest, PathAndCodeRoutingAgree) {
  // Code routing equals its definition on the digit path: the first
  // prefix_depth digits as a radix-2^bits number, modulo K — also on a
  // shape whose codes need 65 bits.
  struct Shape {
    int depth, arity;
  };
  Rng rng(7);
  for (const Shape shape : {Shape{9, 3}, Shape{13, 32}}) {
    const LeafCodec codec(shape.depth, shape.arity);
    for (int shards : {1, 2, 3, 5, 8, 27}) {
      ShardRouter router(shape.depth, shape.arity, shards);
      for (int i = 0; i < 200; ++i) {
        LeafPath leaf = RandomLeafPath(shape.depth, shape.arity, &rng);
        uint64_t prefix = 0;
        for (int d = 0; d < router.prefix_depth(); ++d) {
          prefix = (prefix << codec.bits_per_digit()) |
                   static_cast<uint64_t>(leaf[static_cast<size_t>(d)]);
        }
        EXPECT_EQ(
            static_cast<uint64_t>(router.ShardOf(codec.Pack(leaf), codec)),
            prefix % static_cast<uint64_t>(shards))
            << "shards=" << shards << " depth=" << shape.depth;
      }
    }
  }
}

TEST(ShardRouterTest, RoutingDependsOnlyOnThePrefix) {
  const int depth = 8, arity = 4;
  ShardRouter router(depth, arity, 16);  // prefix_depth == 2
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    LeafPath a = RandomLeafPath(depth, arity, &rng);
    LeafPath b = a;
    // Mutate digits below the prefix: shard must not change.
    for (int d = router.prefix_depth(); d < depth; ++d) {
      b[static_cast<size_t>(d)] = static_cast<char16_t>(
          rng.UniformInt(0, arity - 1));
    }
    EXPECT_EQ(ShardOf(router, a), ShardOf(router, b));
  }
}

TEST(ShardRouterTest, CrossShardLeavesDifferInsideThePrefix) {
  // The cutoff-level contract: leaves routed to different shards must
  // have their first differing digit inside the prefix, i.e. an LCA at
  // level > cutoff_level().
  const int depth = 7, arity = 3;
  Rng rng(13);
  for (int shards : {2, 4, 9}) {
    ShardRouter router(depth, arity, shards);
    for (int i = 0; i < 300; ++i) {
      LeafPath a = RandomLeafPath(depth, arity, &rng);
      LeafPath b = RandomLeafPath(depth, arity, &rng);
      if (ShardOf(router, a) == ShardOf(router, b)) continue;
      EXPECT_GT(LcaLevel(a, b), router.cutoff_level());
    }
  }
}

TEST(ShardRouterTest, AllShardsAreReachable) {
  const int depth = 6, arity = 4;
  for (int shards : {2, 3, 8, 13}) {
    ShardRouter router(depth, arity, shards);
    std::set<int> seen;
    Rng rng(17);
    for (int i = 0; i < 4000 && static_cast<int>(seen.size()) < shards; ++i) {
      int shard = ShardOf(router, RandomLeafPath(depth, arity, &rng));
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, shards);
      seen.insert(shard);
    }
    EXPECT_EQ(static_cast<int>(seen.size()), shards) << "shards=" << shards;
  }
}

TEST(ShardRouterDeathTest, RejectsOversizedShardCounts) {
  EXPECT_DEATH(ShardRouter(3, 2, 9), "prefixes");
}

}  // namespace
}  // namespace tbf
