// Min-permutation-rank ball queries — the engine of the fast FRT builder.
//
// Algorithm 1 assigns every point u, at every level i, to the *first*
// center in the permutation pi whose ball of radius beta * 2^i covers u.
// The seed found that center by scanning all N candidates; this index
// answers the query
//
//     min { r : scale * d(query, center_r) <= scaled_radius }
//
// in near-constant expected candidate work:
//
//   * a per-level uniform grid (PrepareGrid) with cell size tied to the
//     level radius. Each cell holds its centers sorted by rank, so a query
//     scans the 3x3 neighborhood in rank order and stops at the first
//     cover; for a uniformly random permutation the expected number of
//     candidates tested is O(1) regardless of point density.
//   * a k-d tree over the centers where every subtree stores its minimum
//     rank (built once; radius-independent). Queries branch-and-bound on
//     (bbox distance, subtree min rank). This is the robust fallback: used
//     directly at levels where few points need queries (grid build is
//     O(N)), and mid-query when a skewed cell makes the grid scan exceed
//     its candidate budget.
//
// Exactness contract: the covering test is evaluated with the *identical*
// floating-point expression the reference builder uses
// (scale * Distance(query, center) <= scaled_radius), and all geometric
// pruning carries a relative slack so rounding can never exclude a center
// the exact test would accept. Both query paths therefore return the exact
// minimum rank — the index accelerates, it never approximates.
//
// Queries are const, allocation-free, and safe to issue concurrently
// (PrepareGrid is not; prepare, then fan out).

#pragma once

#include <cstdint>
#include <vector>

#include "geo/metric.h"
#include "geo/point.h"

namespace tbf {

/// \brief Spatial index over ranked centers answering min-rank-within-ball
/// queries exactly. `kind` must be kEuclidean or kManhattan (both satisfy
/// d >= max(|dx|, |dy|), which the cell/bbox pruning relies on).
class MinRankBallIndex {
 public:
  /// Candidates scanned by the grid path before a query falls back to the
  /// k-d path (guards against adversarially skewed cells).
  static constexpr int kDefaultGridScanBudget = 64;

  /// `centers_by_rank[r]` is the location of the rank-r center; `scale` is
  /// the builder's metric scale (covering tests compare
  /// scale * distance <= scaled_radius).
  MinRankBallIndex(std::vector<Point> centers_by_rank, MetricKind kind,
                   double scale, int grid_scan_budget = kDefaultGridScanBudget);

  /// \brief Rebuilds the uniform grid for covering radius `prune_radius`
  /// (unscaled metric units, slack included by the caller). Returns false —
  /// leaving the grid unusable — when the radius is so small relative to
  /// the point spread that cell coordinates would overflow; callers then
  /// query with use_grid = false.
  bool PrepareGrid(double prune_radius);

  /// \brief Smallest rank r < `initial_bound` whose center covers `query`
  /// under the exact test scale * d(query, center_r) <= scaled_radius, or
  /// `initial_bound` when none does. `prune_radius` must upper-bound the
  /// unscaled distance of any accepted center (callers pass
  /// (scaled_radius / scale) * (1 + slack)). With use_grid, PrepareGrid
  /// must have succeeded for this radius. Thread-safe, allocation-free.
  int MinCoveringRank(const Point& query, double scaled_radius,
                      double prune_radius, int initial_bound,
                      bool use_grid) const;

 private:
  struct KdNode {
    double min_x, min_y, max_x, max_y;  // subtree bounding box
    double x, y;                        // this node's center
    int32_t rank;
    int32_t min_rank;                   // min rank in subtree (incl. self)
    int32_t left = -1, right = -1;
  };

  struct GridEntry {
    double x, y;
    int32_t rank;
  };

  // Open-addressing slot for cell key -> cell id, epoch-stamped so grids
  // rebuild without clearing the table.
  struct CellSlot {
    uint64_t key = 0;
    int32_t cell = -1;
    uint32_t epoch = 0;
  };

  int32_t BuildKd(std::vector<int32_t>* ranks, int lo, int hi, int axis);
  bool Covers(const Point& query, double cx, double cy,
              double scaled_radius) const;
  int KdMinCoveringRank(const Point& query, double scaled_radius,
                        double prune_radius, int best) const;
  int FindCell(int64_t cx, int64_t cy) const;

  std::vector<Point> centers_;  // by rank
  MetricKind kind_;
  double scale_;
  int grid_scan_budget_;
  double origin_x_ = 0.0, origin_y_ = 0.0;  // point-set min corner
  double span_ = 0.0;                       // max axis extent

  std::vector<KdNode> kd_;
  int32_t kd_root_ = -1;

  // Grid state (valid for the last successful PrepareGrid).
  double inv_cell_size_ = 0.0;
  uint32_t grid_epoch_ = 0;
  std::vector<CellSlot> slots_;       // power-of-two open-addressing table
  uint64_t slot_mask_ = 0;
  std::vector<GridEntry> entries_;    // cell-major, rank-sorted within cell
  std::vector<int32_t> cell_begin_;   // CSR offsets, size num_cells + 1
  std::vector<int32_t> cell_of_rank_; // scratch for the two-pass fill
  int32_t num_cells_ = 0;
};

}  // namespace tbf
