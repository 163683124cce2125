#include "hst/hst_tree.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math.h"
#include "geo/pair_bounds.h"
#include "hst/build_internal.h"

namespace tbf {

Result<HstTree> HstTree::BuildReference(const std::vector<Point>& points,
                                        const Metric& metric, Rng* rng,
                                        const HstTreeOptions& options) {
  if (points.empty()) return Status::InvalidArgument("empty point set");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  HstTree tree;
  const int n = static_cast<int>(points.size());

  // Normalize the metric so min pairwise distance == kMinSeparation; this
  // guarantees singleton level-0 clusters (ball radius there is beta <= 1).
  // ClosestPairDistance includes zero-distance pairs, so a result <= 0 is
  // exactly the seed's duplicate rejection (any pair with computed
  // distance <= 0) at O(N log N) instead of the O(N^2) pre-scan; once
  // duplicates are ruled out the value equals the minimum non-zero
  // distance bit for bit.
  double min_dist = 0.0;
  if (n > 1) {
    min_dist = ClosestPairDistance(points, metric);
    if (min_dist <= 0.0) return hst_build_internal::DuplicatePointsError();
  }

  auto dist = [&](int a, int b) {
    return tree.scale_ *
           metric.Distance(points[static_cast<size_t>(a)], points[static_cast<size_t>(b)]);
  };

  // Line 1 of Alg. 1: D = ceil(log2(2 * max distance)), beta ~ U[1/2, 1),
  // pi a random permutation of V.
  TBF_ASSIGN_OR_RETURN(
      const hst_build_internal::BuildPrelude prelude,
      hst_build_internal::ResolvePrelude(
          n, min_dist, MaxPairwiseDistance(points, metric), rng, options));
  tree.scale_ = prelude.scale;
  tree.depth_ = prelude.depth;
  tree.beta_ = prelude.beta;

  TBF_ASSIGN_OR_RETURN(std::vector<int> pi,
                       hst_build_internal::ResolvePi(n, rng, options));

  // Root cluster holds all of V at level D.
  tree.nodes_.push_back(HstNode{});
  tree.root_ = 0;
  HstNode& root = tree.nodes_[0];
  root.level = tree.depth_;
  root.point_ids.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) root.point_ids[static_cast<size_t>(i)] = i;

  // Lines 3-13: split every cluster at level i+1 into child clusters at
  // level i using balls of radius beta * 2^i around pi(1), pi(2), ...
  std::vector<int> frontier = {tree.root_};
  for (int level = tree.depth_ - 1; level >= 0; --level) {
    const double radius = tree.beta_ * PowerOfTwo(level);
    std::vector<int> next_frontier;
    for (int cluster_index : frontier) {
      // Copy out the members: mutating nodes_ below may reallocate.
      std::vector<int> remaining = tree.nodes_[static_cast<size_t>(cluster_index)].point_ids;
      for (int j = 0; j < n && !remaining.empty(); ++j) {
        const int center = pi[static_cast<size_t>(j)];
        std::vector<int> ball;
        std::vector<int> rest;
        for (int u : remaining) {
          if (dist(u, center) <= radius) {
            ball.push_back(u);
          } else {
            rest.push_back(u);
          }
        }
        if (ball.empty()) continue;
        const int child_index = static_cast<int>(tree.nodes_.size());
        tree.nodes_.push_back(HstNode{});
        HstNode& child = tree.nodes_.back();
        child.level = level;
        child.parent = cluster_index;
        child.point_ids = std::move(ball);
        tree.nodes_[static_cast<size_t>(cluster_index)].children.push_back(child_index);
        next_frontier.push_back(child_index);
        remaining = std::move(rest);
      }
      TBF_CHECK(remaining.empty())
          << "FRT partition left unassigned points at level " << level;
    }
    frontier = std::move(next_frontier);
  }

  // Leaves must be singletons; record the leaf of each point.
  tree.leaf_of_point_.assign(static_cast<size_t>(n), -1);
  for (int leaf_index : frontier) {
    const HstNode& leaf = tree.nodes_[static_cast<size_t>(leaf_index)];
    if (leaf.point_ids.size() != 1) {
      return Status::Internal("non-singleton leaf cluster; metric separation violated");
    }
    tree.leaf_of_point_[static_cast<size_t>(leaf.point_ids[0])] = leaf_index;
  }

  // Line 14: maximum branching factor c.
  tree.max_branching_ = 0;
  for (const HstNode& node : tree.nodes_) {
    tree.max_branching_ =
        std::max(tree.max_branching_, static_cast<int>(node.children.size()));
  }

  return tree;
}

}  // namespace tbf
