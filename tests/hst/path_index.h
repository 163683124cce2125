// Test helper: an HstAvailabilityIndex addressed by digit paths, packed at
// the boundary through the index's own codec, so test cases read as trees.

#pragma once

#include <cstddef>

#include "common/rng.h"
#include "hst/hst_index.h"
#include "hst/leaf_path.h"

namespace tbf {

class PathIndex {
 public:
  PathIndex(int depth, int arity) : index_(depth, arity) {}

  void Insert(const LeafPath& leaf, int id) { index_.Insert(Code(leaf), id); }
  void Remove(const LeafPath& leaf, int id) { index_.Remove(Code(leaf), id); }
  auto Nearest(const LeafPath& query) const {
    return index_.Nearest(Code(query));
  }
  auto NearestUniform(const LeafPath& query, Rng* rng) const {
    return index_.NearestUniform(Code(query), rng);
  }
  auto NearestK(const LeafPath& query, size_t limit) const {
    return index_.NearestK(Code(query), limit);
  }
  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

 private:
  LeafCode Code(const LeafPath& leaf) const {
    return index_.codec()->Pack(leaf);
  }

  HstAvailabilityIndex index_;
};

}  // namespace tbf
