#include "hst/complete_hst.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"
#include "common/math.h"

namespace tbf {

namespace {

Status WideShape(int depth, int arity) {
  return Status::InvalidArgument(
      "tree shape depth " + std::to_string(depth) + " x arity " +
      std::to_string(arity) + " needs " +
      std::to_string(int64_t{depth} * LeafCodec::BitsPerDigit(arity)) +
      " bits of leaf code, more than " + std::to_string(kLeafCodeBits));
}

bool FitsCodes(const HstTree& tree) {
  return LeafCodec::Fits(tree.depth(), std::max(2, tree.max_branching()));
}

// `points` moved to the nearest node of a square lattice of the given
// spacing, duplicates merged, sorted by x then y. Distinct lattice nodes
// lie at least `spacing` apart.
std::vector<Point> SnapToLattice(const std::vector<Point>& points,
                                 double spacing) {
  std::vector<Point> out;
  out.reserve(points.size());
  for (const Point& p : points) {
    out.emplace_back(std::round(p.x / spacing) * spacing,
                     std::round(p.y / spacing) * spacing);
  }
  std::sort(out.begin(), out.end(), [](const Point& a, const Point& b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Result<CompleteHst> CompleteHst::Build(const HstTree& tree,
                                       std::vector<Point> points) {
  if (points.size() != tree.num_points()) {
    return Status::InvalidArgument("point set does not match the tree");
  }
  CompleteHst out;
  out.depth_ = tree.depth();
  out.arity_ = std::max(2, tree.max_branching());
  if (out.arity_ > std::numeric_limits<char16_t>::max()) {
    return Status::OutOfRange("tree branching exceeds digit capacity (65535)");
  }
  if (!LeafCodec::Fits(out.depth_, out.arity_)) {
    return WideShape(out.depth_, out.arity_);
  }
  out.scale_ = tree.scale();
  out.points_ = std::move(points);

  // Code of each real leaf: the child index at each node on the
  // root-to-leaf walk, written into its digit field. Real children occupy
  // digits 0..k-1 in construction order; digits k..c-1 are the fake
  // children appended by padding. One pass over the nodes records every
  // node's digit within its parent, so each leaf walk is O(D) instead of
  // O(D * c) sibling scans.
  out.codec_.emplace(out.depth_, out.arity_);
  out.leaf_codes_.resize(out.points_.size());
  const auto& nodes = tree.nodes();
  // -1 until a parent lists the node, so a node missing from its parent's
  // children list trips the consistency check below.
  std::vector<int> digit_of_node(nodes.size(), -1);
  for (size_t node = 0; node < nodes.size(); ++node) {
    const auto& children = nodes[node].children;
    for (size_t d = 0; d < children.size(); ++d) {
      digit_of_node[static_cast<size_t>(children[d])] = static_cast<int>(d);
    }
  }
  for (size_t pid = 0; pid < out.points_.size(); ++pid) {
    int node = tree.leaf_of_point(static_cast<int>(pid));
    LeafCode code = 0;
    int position = out.depth_;
    while (nodes[static_cast<size_t>(node)].parent >= 0) {
      TBF_CHECK(digit_of_node[static_cast<size_t>(node)] >= 0)
          << "tree child/parent inconsistency";
      --position;
      TBF_CHECK(position >= 0) << "leaf not at level 0";
      code = out.codec_->WithDigit(code, position,
                                   digit_of_node[static_cast<size_t>(node)]);
      node = nodes[static_cast<size_t>(node)].parent;
    }
    TBF_CHECK(position == 0) << "leaf not at level 0";
    out.leaf_codes_[pid] = code;
  }

  const Status indexed = out.IndexLeafCodes();
  TBF_CHECK(indexed.ok()) << "built tree: " << indexed.ToString();
  // The build path pays the mapper up front: the lattice check, and the
  // k-d tree only when the check fails.
  if (out.Lattice() == nullptr) out.Tree();
  return out;
}

Result<CompleteHst> CompleteHst::BuildFromPoints(const std::vector<Point>& points,
                                                 const Metric& metric, Rng* rng,
                                                 const HstTreeOptions& options) {
  TBF_ASSIGN_OR_RETURN(HstTree tree, HstTree::Build(points, metric, rng, options));
  if (FitsCodes(tree) || !options.normalize || !options.permutation.empty()) {
    return Build(tree, points);
  }
  // A dense set (tiny minimum spacing, large diameter) builds a tree too
  // deep for 128-bit codes. Each level the tree sheds doubles the minimum
  // spacing, so snap to a lattice 2^excess times coarser than the current
  // one and rebuild, until the shape fits or stops shrinking.
  std::vector<Point> snapped = points;
  while (true) {
    const int bits =
        LeafCodec::BitsPerDigit(std::max(2, tree.max_branching()));
    const int excess = tree.depth() - kLeafCodeBits / bits;
    const double min_spacing = HstTreeOptions::kMinSeparation / tree.scale();
    snapped = SnapToLattice(snapped, std::ldexp(min_spacing, excess));
    TBF_ASSIGN_OR_RETURN(HstTree coarser,
                         HstTree::Build(snapped, metric, rng, options));
    const bool shrank = coarser.depth() < tree.depth();
    tree = std::move(coarser);
    if (!shrank || FitsCodes(tree)) return Build(tree, std::move(snapped));
  }
}

Result<CompleteHst> CompleteHst::FromParts(int depth, int arity, double scale,
                                           std::vector<Point> points,
                                           std::vector<LeafCode> leaf_codes) {
  if (depth < 1) return Status::InvalidArgument("depth must be >= 1");
  if (arity < 2) return Status::InvalidArgument("arity must be >= 2");
  if (arity > std::numeric_limits<char16_t>::max()) {
    return Status::OutOfRange("arity exceeds digit capacity (65535)");
  }
  if (!(scale > 0.0)) return Status::InvalidArgument("scale must be positive");
  if (points.empty()) return Status::InvalidArgument("empty point set");
  if (points.size() != leaf_codes.size()) {
    return Status::InvalidArgument("points/leaf_codes size mismatch");
  }
  if (!LeafCodec::Fits(depth, arity)) return WideShape(depth, arity);
  CompleteHst out;
  out.depth_ = depth;
  out.arity_ = arity;
  out.scale_ = scale;
  out.points_ = std::move(points);
  out.leaf_codes_ = std::move(leaf_codes);
  out.codec_.emplace(depth, arity);
  for (size_t row = 0; row < out.leaf_codes_.size(); ++row) {
    const Status valid = out.codec_->Validate(out.leaf_codes_[row]);
    if (!valid.ok()) {
      return Status::InvalidArgument("row " + std::to_string(row) + ": " +
                                     valid.message());
    }
  }
  TBF_RETURN_NOT_OK(out.IndexLeafCodes());
  // No mapper here: the deserialization path returns as soon as the
  // lookup tables exist, deferring the lattice check and the k-d tree to
  // the first MapToNearest* call (a restarting server needs leaf lookups
  // immediately, the mapper only on its first re-key or client mapping).
  return out;
}

Status CompleteHst::IndexLeafCodes() {
  point_by_code_.reserve(leaf_codes_.size());
  for (size_t row = 0; row < leaf_codes_.size(); ++row) {
    const auto [it, inserted] =
        point_by_code_.emplace(leaf_codes_[row], static_cast<int>(row));
    if (!inserted) {
      return Status::InvalidArgument(
          "row " + std::to_string(row) +
          ": duplicate leaf path (first seen at row " +
          std::to_string(it->second) + ")");
    }
  }
  return Status::OK();
}

double CompleteHst::num_leaves() const {
  return std::pow(static_cast<double>(arity_), depth_);
}

std::optional<int> CompleteHst::point_of_leaf(LeafCode leaf) const {
  auto it = point_by_code_.find(leaf);
  if (it == point_by_code_.end()) return std::nullopt;
  return it->second;
}

double CompleteHst::TreeDistanceForLcaLevel(int level) const {
  return TreeDistanceForLevel(level) / scale_;
}

const PointLattice* CompleteHst::Lattice() const {
  LazyMapper& mapper = *mapper_;
  if (!mapper.lattice_checked.load(std::memory_order_acquire)) {
    std::call_once(mapper.lattice_once, [&] {
      mapper.lattice = PointLattice::Detect(points_);
      mapper.lattice_checked.store(true, std::memory_order_release);
    });
  }
  return mapper.lattice ? &*mapper.lattice : nullptr;
}

const KdTree& CompleteHst::Tree() const {
  std::call_once(mapper_->tree_once,
                 [this] { mapper_->tree = std::make_unique<KdTree>(points_); });
  return *mapper_->tree;
}

int CompleteHst::MapToNearestPoint(const Point& location) const {
  if (const PointLattice* lattice = Lattice()) {
    const int id = lattice->Nearest(location);
    if (id >= 0) return id;
  }
  const int id = Tree().NearestNeighbor(location);
  TBF_CHECK(id >= 0) << "empty predefined point set";
  return id;
}

LeafCode CompleteHst::MapToNearestLeafCode(const Point& location) const {
  return leaf_code_of_point(MapToNearestPoint(location));
}

double CompleteHst::SiblingSetSize(int level) const {
  TBF_CHECK(level >= 1 && level <= depth_) << "level out of range";
  return (arity_ - 1) * std::pow(static_cast<double>(arity_), level - 1);
}

}  // namespace tbf
