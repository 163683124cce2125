// Spatial shard routing over HST leaves.
//
// The sharded serving engine partitions the leaf space by leaf-code
// prefix: the first P digits of a leaf path (its ancestor at level D - P)
// determine its shard, P being the smallest prefix length with at least
// `num_shards` distinct values. Prefixes spread over shards by modulo, so
// K need not divide the arity power.
//
// The routing function is what makes cross-shard nearest-worker
// resolution cheap: two leaves in *different* shards necessarily differ
// within their first P digits, so their LCA sits at level >= D - P + 1.
// Hence a home-shard candidate whose LCA with the task is at level
// <= cutoff_level() = D - P is strictly nearer than every worker of every
// other shard, and the engine can commit to it after probing a single
// shard. Only tasks whose home subtree is empty that high up (tasks "near
// a shard boundary" in tree space) pay for a fan-out query.

#pragma once

#include <cstdint>

#include "hst/leaf_code.h"

namespace tbf {

/// \brief Maps leaves of a (depth, arity) complete HST onto `num_shards`
/// prefix shards. Immutable; cheap to copy; thread-safe for reads.
class ShardRouter {
 public:
  /// CHECK-fails unless Fits(depth, arity, num_shards).
  ShardRouter(int depth, int arity, int num_shards);

  /// \brief True when the leaf space has at least `num_shards` prefixes:
  /// num_shards >= 1 and num_shards <= arity^depth (saturating).
  static bool Fits(int depth, int arity, int num_shards);

  int depth() const { return depth_; }
  int arity() const { return arity_; }
  int num_shards() const { return num_shards_; }

  /// Prefix digits consulted by the routing function (0 when K = 1).
  int prefix_depth() const { return prefix_depth_; }

  /// \brief Highest LCA level at which a same-shard candidate is provably
  /// nearer than any cross-shard worker: depth - prefix_depth. A K = 1
  /// router returns depth, i.e. every candidate wins locally.
  int cutoff_level() const { return depth_ - prefix_depth_; }

  /// \brief Shard owning the leaf `code`; `codec` must describe the
  /// router's shape.
  int ShardOf(LeafCode code, const LeafCodec& codec) const {
    return static_cast<int>(codec.PrefixValue(code, prefix_depth_) %
                            static_cast<uint64_t>(num_shards_));
  }

 private:
  int depth_;
  int arity_;
  int num_shards_;
  int prefix_depth_;
};

}  // namespace tbf
