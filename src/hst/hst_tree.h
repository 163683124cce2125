// Hierarchically Well-Separated Tree construction — paper Algorithm 1,
// the FRT embedding (Fakcharoenphol, Rao, Talwar, STOC'03).
//
// Given a finite metric (V, d), builds a tree whose leaves (level 0) are the
// points of V and where an edge from level i to level i+1 has length 2^{i+1}
// in internal units. The randomness (permutation pi and radius factor beta)
// makes E[d_T(u,v)] = O(log|V|) * d(u,v) while d_T(u,v) >= d(u,v) always.
//
// FRT requires the minimum pairwise distance to exceed twice the level-0
// radius for leaves to be singletons; the builder normalizes the metric by
// an internal scale factor so min distance = kMinSeparation, and records the
// scale so callers can convert tree distances back to metric units.

#pragma once

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "geo/metric.h"
#include "geo/point.h"

namespace tbf {

/// \brief Construction options for Algorithm 1.
struct HstTreeOptions {
  /// Radius factor beta; values outside [0.5, 1] mean "sample U[1/2, 1)"
  /// as in the paper (line 1 of Alg. 1).
  double beta = -1.0;

  /// When true (default), rescale the metric so the minimum pairwise
  /// distance is kMinSeparation, guaranteeing singleton leaves. When false
  /// the caller asserts the metric already separates points by more than
  /// 2 * beta (the level-0 ball diameter); Build fails otherwise.
  bool normalize = true;

  /// Optional fixed permutation pi (indices into the point set). Empty
  /// means "sample uniformly" as in the paper. A fixed pi makes the tree
  /// fully deterministic — used to reproduce the paper's Example 1 exactly.
  std::vector<int> permutation;

  /// Worker threads for the fast builder's per-level assignment queries
  /// (<= 0 means all hardware threads). The tree is a pure function of
  /// (pi, beta), so every thread count produces the identical tree; this
  /// only trades wall clock. Ignored by BuildReference.
  int num_threads = 1;

  /// Internal separation target; > 2 so level-0 balls (radius beta <= 1)
  /// cannot contain two points.
  static constexpr double kMinSeparation = 2.01;
};

/// \brief Node of the (un-padded) HST produced by Algorithm 1.
struct HstNode {
  int level = 0;                ///< leaves at 0, root at depth()
  int parent = -1;              ///< node index, -1 for root
  std::vector<int> children;    ///< node indices, in construction order
  std::vector<int> point_ids;   ///< points of V in this cluster
};

/// \brief Result of Algorithm 1: the real (pre-padding) HST.
class HstTree {
 public:
  /// \brief Runs Algorithm 1 over `points` with metric `metric`.
  ///
  /// Fails on: empty input, duplicate points (zero pairwise distance), or —
  /// with normalize=false — a metric whose min distance is below
  /// kMinSeparation (leaves could then hold several points).
  /// `rng` supplies the permutation pi and (unless fixed) beta.
  ///
  /// This is the grid-accelerated builder (~O(N D log N)): the only
  /// randomness in Algorithm 1 is (pi, beta), and a point's cluster at
  /// level i is exactly the group sharing its minimum-pi-rank covering
  /// center at every level >= i, so per-level min-rank ball queries
  /// (geo/rank_index.h) replace the reference's O(N^2) center scans while
  /// producing the bit-identical tree — same nodes, same order, same
  /// leaves, for any options.num_threads. Draw-for-draw RNG-compatible
  /// with BuildReference. Metrics reporting MetricKind::kGeneric fall back
  /// to BuildReference (no coordinate pruning is possible).
  static Result<HstTree> Build(const std::vector<Point>& points,
                               const Metric& metric, Rng* rng,
                               const HstTreeOptions& options = {});

  /// \brief The seed's level-by-level O(N^2 D) Algorithm 1, kept verbatim.
  /// It ships because Build falls back to it for kGeneric metrics, and it
  /// is the golden reference the fast builder is fuzz-pinned against
  /// (tests/hst/hst_build_golden_test.cc). Same contract as Build.
  static Result<HstTree> BuildReference(const std::vector<Point>& points,
                                        const Metric& metric, Rng* rng,
                                        const HstTreeOptions& options = {});

  /// Tree depth D = ceil(log2(2 * max pairwise distance)) in scaled units;
  /// the root sits at level D, leaves at level 0.
  int depth() const { return depth_; }

  /// Internal units per metric unit: d_internal = scale() * d_metric.
  double scale() const { return scale_; }

  /// The beta actually used.
  double beta() const { return beta_; }

  /// Maximum number of children over all internal nodes.
  int max_branching() const { return max_branching_; }

  const std::vector<HstNode>& nodes() const { return nodes_; }
  int root() const { return root_; }

  /// Node index of the singleton leaf holding `point_id`.
  int leaf_of_point(int point_id) const {
    return leaf_of_point_[static_cast<size_t>(point_id)];
  }

  size_t num_points() const { return leaf_of_point_.size(); }

 private:
  HstTree() = default;

  int depth_ = 0;
  double scale_ = 1.0;
  double beta_ = 0.75;
  int max_branching_ = 0;
  int root_ = -1;
  std::vector<HstNode> nodes_;
  std::vector<int> leaf_of_point_;
};

}  // namespace tbf
