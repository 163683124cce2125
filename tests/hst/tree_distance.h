// Test helper: distance between two points' leaves measured along an
// unpadded HstTree, in *metric* units. O(depth). The FRT distortion tests
// check it against the direct metric distance, and the CompleteHst tests
// check the padded tree's TreeDistance against it.

#pragma once

#include "common/logging.h"
#include "common/math.h"
#include "hst/hst_tree.h"

namespace tbf {

inline double TreeDistanceBetweenPoints(const HstTree& tree, int point_a,
                                        int point_b) {
  if (point_a == point_b) return 0.0;
  int a = tree.leaf_of_point(point_a);
  int b = tree.leaf_of_point(point_b);
  double dist_internal = 0.0;
  // Leaves are at equal depth; climb in lockstep until the clusters merge.
  while (a != b) {
    const HstNode& na = tree.nodes()[static_cast<size_t>(a)];
    const HstNode& nb = tree.nodes()[static_cast<size_t>(b)];
    // Edge to parent from level i has length 2^{i+1}.
    dist_internal += 2.0 * PowerOfTwo(na.level) + 2.0 * PowerOfTwo(nb.level);
    a = na.parent;
    b = nb.parent;
    TBF_CHECK(a >= 0 && b >= 0) << "walked past the root";
  }
  return dist_internal / tree.scale();
}

}  // namespace tbf
