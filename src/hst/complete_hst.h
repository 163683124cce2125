// Complete c-ary HST — the published structure of paper Sec. III-B.
//
// Wraps an HstTree and pads it (conceptually) with fake nodes until every
// internal node has exactly c children (Alg. 1 lines 14-15). Fake subtrees
// are never materialized: each real point is stored with the packed code
// of its leaf (leaf_code.h), and a code that names no real point is a fake
// leaf. This keeps the memory footprint O(N) while the logical leaf set
// has c^D elements.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "geo/kdtree.h"
#include "geo/lattice.h"
#include "geo/metric.h"
#include "geo/point.h"
#include "hst/hst_tree.h"
#include "hst/leaf_code.h"
#include "hst/leaf_path.h"

namespace tbf {

/// \brief The complete c-ary HST the server publishes: predefined points,
/// the packed code of each one's leaf, and the tree geometry (depth,
/// arity, scale).
///
/// Thread-safe for concurrent reads after construction.
class CompleteHst {
 public:
  /// \brief Pads `tree` to a complete c-ary tree.
  ///
  /// `points` must be the exact point set the tree was built over (the
  /// class keeps a copy for nearest-point mapping). The arity is
  /// max(2, tree.max_branching()): real children keep their construction
  /// order as digits 0..k-1; fake children take the remaining digits.
  static Result<CompleteHst> Build(const HstTree& tree, std::vector<Point> points);

  /// Convenience: run Algorithm 1 and pad, in one call. Build refuses
  /// (InvalidArgument) a tree whose leaf codes would need more than 128
  /// bits (LeafCodec::Fits), so codec() is never null. BuildFromPoints
  /// publishes such a dense set (e.g. a million uniform random points:
  /// depth 25 x arity 36, 150 bits) on its points snapped to a square
  /// lattice just coarse enough to fit, duplicates merged: points() then
  /// holds the snapped set, sorted by x then y. A set that already fits
  /// is never snapped. With normalize off or a fixed permutation the
  /// wide tree is refused instead, as is one that snapping cannot shrink.
  static Result<CompleteHst> BuildFromPoints(const std::vector<Point>& points,
                                             const Metric& metric, Rng* rng,
                                             const HstTreeOptions& options = {});

  /// \brief Reconstructs a published tree from its parts (the snapshot
  /// parser's path, hst/snapshot.h).
  /// Validates depth/arity/scale ranges, every code (LeafCodec::Validate)
  /// and code uniqueness; errors name the offending row ("row 2: duplicate
  /// leaf path (first seen at row 0)"). Like Build, refuses a shape whose
  /// leaf codes would need more than 128 bits.
  static Result<CompleteHst> FromParts(int depth, int arity, double scale,
                                       std::vector<Point> points,
                                       std::vector<LeafCode> leaf_codes);

  /// Tree depth D (root level).
  int depth() const { return depth_; }

  /// Arity c of the complete tree.
  int arity() const { return arity_; }

  /// Internal units per metric unit (see HstTree::scale).
  double scale() const { return scale_; }

  /// Number of real predefined points N.
  int num_points() const { return static_cast<int>(points_.size()); }

  /// Number of logical leaves c^D of the complete tree (saturating; the
  /// value is only informational and may exceed 2^63 for wide trees).
  double num_leaves() const;

  /// The predefined point set, by id.
  const std::vector<Point>& points() const { return points_; }

  /// Digit path of the leaf holding real point `point_id`, unpacked on
  /// each call (the path-based reference API).
  LeafPath leaf_of_point(int point_id) const {
    return codec_->Unpack(leaf_code_of_point(point_id));
  }

  /// \brief Packed code of the leaf holding real point `point_id`
  /// (precomputed at build time).
  LeafCode leaf_code_of_point(int point_id) const {
    return leaf_codes_[static_cast<size_t>(point_id)];
  }

  /// \brief Codec of the packed-code addressing; never null (every
  /// constructed tree fits 128-bit codes).
  const LeafCodec* codec() const { return &*codec_; }

  /// \brief Real point stored at `leaf`, or nullopt for fake leaves.
  std::optional<int> point_of_leaf(LeafCode leaf) const;

  /// \brief Tree distance between two leaves in *metric* units.
  double TreeDistance(LeafCode a, LeafCode b) const {
    return TreeDistanceForLcaLevel(codec_->LcaLevel(a, b));
  }

  /// \brief Tree distance in metric units for a given LCA level.
  double TreeDistanceForLcaLevel(int level) const;

  /// \brief Id of the predefined point nearest to `location` in Euclidean
  /// distance (the client-side mapping step of the paper's workflow);
  /// the smaller id on equal distance, as KdTree::NearestNeighbor.
  int MapToNearestPoint(const Point& location) const;

  /// \brief Packed code of the nearest predefined point's leaf — the
  /// client-side mapping step of the code-native serve path.
  LeafCode MapToNearestLeafCode(const Point& location) const;

  /// Size of |L_i(x)| = (c-1) c^{i-1}, the sibling set at level i >= 1
  /// (as a double; exact while within 2^53).
  double SiblingSetSize(int level) const;

 private:
  CompleteHst() = default;

  // Fills the code -> point lookup once leaf_codes_ is final. On a
  // duplicate leaf, names both rows.
  Status IndexLeafCodes();

  int depth_ = 0;
  int arity_ = 2;
  double scale_ = 1.0;
  std::vector<Point> points_;
  std::vector<LeafCode> leaf_codes_;  // by point id
  std::optional<LeafCodec> codec_;    // always set once constructed
  std::unordered_map<LeafCode, int, LeafCodeHash> point_by_code_;

  // Nearest-point mapper (the client-side mapping step). A point set that
  // forms an axis-aligned lattice (every published grid) is answered by
  // rounding (geo/lattice.h); queries outside the lattice's box, non-finite
  // ones and every irregular set go to a k-d tree. Both answer with the
  // k-d tree's tie rule, so which one runs never changes an id. A tree
  // reloaded from its snapshot serves leaf-addressed lookups the moment
  // the parse returns, so FromParts defers both to the first
  // MapToNearest* call; the build path detects the lattice up front, and
  // pays the k-d tree up front only for an irregular set. A lattice set
  // builds its k-d tree on the first query the lattice cannot answer.
  // Each part has its own once_flag; heap-boxed because std::once_flag
  // is immovable and CompleteHst must stay movable.
  struct LazyMapper {
    std::once_flag lattice_once;
    // Set once `lattice` is final, so the per-query check is one acquire
    // load rather than a pass through std::call_once.
    std::atomic<bool> lattice_checked{false};
    std::optional<PointLattice> lattice;
    std::once_flag tree_once;
    std::unique_ptr<KdTree> tree;
  };
  // The detected lattice, or null for an irregular set.
  const PointLattice* Lattice() const;
  const KdTree& Tree() const;
  mutable std::unique_ptr<LazyMapper> mapper_ = std::make_unique<LazyMapper>();
};

}  // namespace tbf
