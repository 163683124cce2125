#include "geo/kdtree.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace tbf {

KdTree::KdTree(std::vector<Point> points) : points_(std::move(points)) {
  active_.assign(points_.size(), true);
  active_count_ = points_.size();
  Rebuild();
}

void KdTree::Rebuild() {
  nodes_.clear();
  parent_.clear();
  node_of_point_.assign(points_.size(), -1);
  root_ = -1;
  deactivations_since_rebuild_ = 0;
  std::vector<int> ids;
  ids.reserve(points_.size());
  for (size_t i = 0; i < points_.size(); ++i) {
    if (active_[i]) ids.push_back(static_cast<int>(i));
  }
  if (ids.empty()) return;
  nodes_.reserve(ids.size());
  parent_.reserve(ids.size());
  root_ = BuildRecursive(&ids, 0, static_cast<int>(ids.size()), 0);
}

int KdTree::BuildRecursive(std::vector<int>* ids, int lo, int hi, int depth) {
  if (lo >= hi) return -1;
  int axis = depth % 2;
  int mid = lo + (hi - lo) / 2;
  auto begin = ids->begin();
  std::nth_element(begin + lo, begin + mid, begin + hi, [&](int a, int b) {
    const Point& pa = points_[static_cast<size_t>(a)];
    const Point& pb = points_[static_cast<size_t>(b)];
    double va = axis == 0 ? pa.x : pa.y;
    double vb = axis == 0 ? pb.x : pb.y;
    if (va != vb) return va < vb;
    return a < b;  // deterministic tie-break
  });
  int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  parent_.push_back(-1);
  nodes_[static_cast<size_t>(node_index)].point_id = (*ids)[static_cast<size_t>(mid)];
  nodes_[static_cast<size_t>(node_index)].axis = axis;
  node_of_point_[static_cast<size_t>((*ids)[static_cast<size_t>(mid)])] = node_index;

  int left = BuildRecursive(ids, lo, mid, depth + 1);
  int right = BuildRecursive(ids, mid + 1, hi, depth + 1);
  Node& node = nodes_[static_cast<size_t>(node_index)];
  node.left = left;
  node.right = right;
  node.subtree_active = 1;
  if (left >= 0) {
    parent_[static_cast<size_t>(left)] = node_index;
    node.subtree_active += nodes_[static_cast<size_t>(left)].subtree_active;
  }
  if (right >= 0) {
    parent_[static_cast<size_t>(right)] = node_index;
    node.subtree_active += nodes_[static_cast<size_t>(right)].subtree_active;
  }
  return node_index;
}

int KdTree::NearestNeighbor(const Point& query) const {
  if (active_count_ == 0 || root_ < 0) return -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  int best_id = -1;
  NearestRecursive(root_, query, &best_d2, &best_id);
  return best_id;
}

void KdTree::NearestRecursive(int node_index, const Point& query, double* best_d2,
                              int* best_id) const {
  if (node_index < 0) return;
  const Node& node = nodes_[static_cast<size_t>(node_index)];
  if (node.subtree_active == 0) return;

  int pid = node.point_id;
  if (active_[static_cast<size_t>(pid)]) {
    double d2 = SquaredDistance(query, points_[static_cast<size_t>(pid)]);
    // The first active point always wins, so a query whose squared
    // distances all overflow to inf (or are NaN) still gets an answer.
    if (*best_id < 0 || d2 < *best_d2 || (d2 == *best_d2 && pid < *best_id)) {
      *best_d2 = d2;
      *best_id = pid;
    }
  }

  const Point& p = points_[static_cast<size_t>(pid)];
  double qv = node.axis == 0 ? query.x : query.y;
  double pv = node.axis == 0 ? p.x : p.y;
  double diff = qv - pv;
  int near_child = diff <= 0 ? node.left : node.right;
  int far_child = diff <= 0 ? node.right : node.left;

  NearestRecursive(near_child, query, best_d2, best_id);
  if (diff * diff <= *best_d2) {
    NearestRecursive(far_child, query, best_d2, best_id);
  }
}

void KdTree::UpdateCountsOnPath(int id, int delta) {
  int node_index = node_of_point_[static_cast<size_t>(id)];
  while (node_index >= 0) {
    nodes_[static_cast<size_t>(node_index)].subtree_active += delta;
    node_index = parent_[static_cast<size_t>(node_index)];
  }
}

void KdTree::Deactivate(int id) {
  size_t idx = static_cast<size_t>(id);
  if (idx >= points_.size() || !active_[idx]) return;
  active_[idx] = false;
  --active_count_;
  UpdateCountsOnPath(id, -1);
  ++deactivations_since_rebuild_;
  if (active_count_ > 0 && deactivations_since_rebuild_ * 2 > nodes_.size()) {
    Rebuild();
  }
}

}  // namespace tbf
