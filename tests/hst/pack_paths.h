// Test helper: packs digit paths into the leaf codes CompleteHst::FromParts
// and the matchers take, so test fixtures can still be written as trees.

#pragma once

#include <vector>

#include "hst/leaf_code.h"
#include "hst/leaf_path.h"

namespace tbf {

inline std::vector<LeafCode> PackPaths(int depth, int arity,
                                       const std::vector<LeafPath>& paths) {
  const LeafCodec codec(depth, arity);
  std::vector<LeafCode> codes;
  codes.reserve(paths.size());
  for (const LeafPath& path : paths) codes.push_back(codec.Pack(path));
  return codes;
}

}  // namespace tbf
