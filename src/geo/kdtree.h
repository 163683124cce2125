// Static 2-D k-d tree with lazy deletion.
//
// Two uses in the library:
//   * mapping a true location to its nearest predefined HST point
//     (no deletions), and
//   * the accelerated Euclidean greedy matcher, which removes each worker
//     as it is matched (lazy deletion + periodic rebuild).

#pragma once

#include <cstddef>
#include <vector>

#include "geo/point.h"

namespace tbf {

/// \brief Euclidean nearest-neighbor index over a fixed point set.
///
/// Build is O(n log n); NearestNeighbor is O(log n) expected on random data.
/// Deactivate() hides a point from future queries in O(1); the tree rebuilds
/// itself (over active points only) once more than half the points are
/// inactive, keeping amortized query cost low even when all points are
/// eventually consumed.
class KdTree {
 public:
  /// Builds the index over `points` (ids are positions in this vector).
  explicit KdTree(std::vector<Point> points);

  /// \brief Id of the nearest active point to `query`, or -1 when none are
  /// active. Ties break toward the smaller id.
  int NearestNeighbor(const Point& query) const;

  /// \brief Marks a point inactive; no-op if already inactive.
  void Deactivate(int id);

  bool IsActive(int id) const { return active_[static_cast<size_t>(id)]; }

  size_t size() const { return points_.size(); }
  size_t active_count() const { return active_count_; }
  const Point& point(int id) const { return points_[static_cast<size_t>(id)]; }

 private:
  struct Node {
    int point_id = -1;   // point stored at this node
    int left = -1;       // child node indices (-1 = none)
    int right = -1;
    int axis = 0;        // 0 = x, 1 = y
    int subtree_active = 0;  // active points in this subtree
  };

  int BuildRecursive(std::vector<int>* ids, int lo, int hi, int depth);
  void Rebuild();
  void NearestRecursive(int node, const Point& query, double* best_d2,
                        int* best_id) const;
  void UpdateCountsOnPath(int id, int delta);

  std::vector<Point> points_;
  std::vector<bool> active_;
  std::vector<int> parent_;  // node parent index for count maintenance
  std::vector<int> node_of_point_;
  std::vector<Node> nodes_;
  int root_ = -1;
  size_t active_count_ = 0;
  size_t deactivations_since_rebuild_ = 0;
};

}  // namespace tbf
