#include "geo/lattice.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tbf {

namespace {

// Step of the sorted values `v` (at least 2) when each lies within 1/16
// of a step of its evenly spaced position; 0 otherwise.
double NearlyEvenStep(const std::vector<double>& v) {
  const double step = (v.back() - v.front()) / static_cast<double>(v.size() - 1);
  for (size_t i = 0; i < v.size(); ++i) {
    const double even = v.front() + static_cast<double>(i) * step;
    if (!(std::fabs(v[i] - even) <= step / 16)) return 0.0;
  }
  return step;
}

}  // namespace

std::optional<PointLattice> PointLattice::Detect(const std::vector<Point>& points) {
  const size_t n = points.size();
  if (n < 4 || n > static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return std::nullopt;
  }
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = min_x;
  for (const Point& p : points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return std::nullopt;
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
  }
  // X is read off the lowest row and Y off the leftmost column; every
  // point must then sit on one of their crossings, each crossing once.
  PointLattice out;
  for (const Point& p : points) {
    if (p.y == min_y) out.xs_.push_back(p.x);
    if (p.x == min_x) out.ys_.push_back(p.y);
  }
  std::sort(out.xs_.begin(), out.xs_.end());
  std::sort(out.ys_.begin(), out.ys_.end());
  const size_t nx = out.xs_.size();
  const size_t ny = out.ys_.size();
  if (nx < 2 || ny < 2 || nx * ny != n) return std::nullopt;
  // Nearly even spacing also rules out a repeated value in either list.
  const double step_x = NearlyEvenStep(out.xs_);
  const double step_y = NearlyEvenStep(out.ys_);
  const double min_step = std::min(step_x, step_y);
  const double max_step = std::max(step_x, step_y);
  const double max_abs =
      std::max({std::fabs(out.xs_.front()), std::fabs(out.xs_.back()),
                std::fabs(out.ys_.front()), std::fabs(out.ys_.back())});
  if (!(min_step >= 0x1p-480 && max_abs <= 0x1p480 &&
        max_step <= 0x1p20 * min_step && max_abs <= 0x1p30 * min_step)) {
    return std::nullopt;
  }
  out.id_of_cell_.assign(n, -1);
  for (size_t id = 0; id < n; ++id) {
    const Point& p = points[id];
    const auto x = std::lower_bound(out.xs_.begin(), out.xs_.end(), p.x);
    const auto y = std::lower_bound(out.ys_.begin(), out.ys_.end(), p.y);
    if (x == out.xs_.end() || *x != p.x || y == out.ys_.end() || *y != p.y) {
      return std::nullopt;
    }
    int32_t& cell = out.id_of_cell_[static_cast<size_t>(y - out.ys_.begin()) * nx +
                                    static_cast<size_t>(x - out.xs_.begin())];
    if (cell >= 0) return std::nullopt;
    cell = static_cast<int32_t>(id);
  }
  out.inv_step_x_ = 1.0 / step_x;
  out.inv_step_y_ = 1.0 / step_y;
  return out;
}

int PointLattice::Nearest(const Point& query) const {
  if (!(query.x >= xs_.front() && query.x <= xs_.back() &&
        query.y >= ys_.front() && query.y <= ys_.back())) {
    return -1;
  }
  const int nx = static_cast<int>(xs_.size());
  const int ny = static_cast<int>(ys_.size());
  // Inside the box the scaled offset lies in [0, n - 1] up to rounding, so
  // truncating it plus one half rounds it to the nearest cell index.
  const int cx = static_cast<int>((query.x - xs_.front()) * inv_step_x_ + 0.5);
  const int cy = static_cast<int>((query.y - ys_.front()) * inv_step_y_ + 0.5);
  double best_d2 = std::numeric_limits<double>::infinity();
  int best_id = std::numeric_limits<int>::max();
  for (int oy = -1; oy <= 1; ++oy) {
    const int iy = std::clamp(cy + oy, 0, ny - 1);
    const int32_t* row = &id_of_cell_[static_cast<size_t>(iy) * static_cast<size_t>(nx)];
    for (int ox = -1; ox <= 1; ++ox) {
      const int ix = std::clamp(cx + ox, 0, nx - 1);
      const double d2 = SquaredDistance(query, Point(xs_[static_cast<size_t>(ix)],
                                                     ys_[static_cast<size_t>(iy)]));
      const int id = row[ix];
      const bool better = d2 < best_d2 || (d2 == best_d2 && id < best_id);
      best_d2 = better ? d2 : best_d2;
      best_id = better ? id : best_id;
    }
  }
  return best_id;
}

}  // namespace tbf
