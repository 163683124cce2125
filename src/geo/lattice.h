// Nearest point on an axis-aligned lattice, by rounding.
//
// A point set that is exactly X x Y (both coordinate lists sorted, every
// cell held once), such as the UniformGridPoints grids every workload
// publishes, needs no search tree: the cell under a query follows from
// rounding, and the nearest point lies in the 3 x 3 block around it. The
// answer is the k-d tree's (geo/kdtree.h) exactly, tie rule included.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geo/point.h"

namespace tbf {

/// \brief Nearest-point index over a point set that is an axis-aligned
/// lattice; answers only queries inside the lattice's bounding box.
///
/// The spacing need not be exactly even (UniformGridPoints coordinates
/// are `fx * width`): Detect accepts each coordinate list when every
/// value lies within 1/16 of a step of its evenly spaced position, and
/// within ranges that keep the squared distances exact enough to rank
/// (steps at most 2^20 apart in size, coordinates at most 2^30 steps
/// from 0). Within those bounds, every point outside the 3 x 3 block
/// around the rounded cell is strictly farther, in floating point, than
/// the nearest point inside it.
class PointLattice {
 public:
  /// \brief The lattice `points` form, with ids their positions, or
  /// nullopt when they form none: fewer than 2 distinct values on an axis,
  /// a point off the grid, a cell held twice or left empty, a non-finite
  /// coordinate, or spacing outside the bounds above.
  static std::optional<PointLattice> Detect(const std::vector<Point>& points);

  /// \brief Id of the point nearest to `query` in SquaredDistance, the
  /// smaller id on equal distance (KdTree::NearestNeighbor's rule); -1
  /// when `query` lies outside [x.front, x.back] x [y.front, y.back] or
  /// has a NaN coordinate. Scores a fixed 9 candidates, with no early
  /// exit, for every query it answers.
  int Nearest(const Point& query) const;

 private:
  PointLattice() = default;

  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<int32_t> id_of_cell_;  // row-major: iy * xs_.size() + ix
  double inv_step_x_ = 0.0;
  double inv_step_y_ = 0.0;
};

}  // namespace tbf
