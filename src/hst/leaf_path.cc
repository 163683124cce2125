#include "hst/leaf_path.h"

#include "common/logging.h"
#include "common/math.h"
#include "common/rng.h"

namespace tbf {

int LcaLevel(const LeafPath& a, const LeafPath& b) {
  TBF_CHECK(a.size() == b.size()) << "leaf paths from different trees: "
                                  << a.size() << " vs " << b.size();
  const int depth = static_cast<int>(a.size());
  for (int j = 0; j < depth; ++j) {
    if (a[static_cast<size_t>(j)] != b[static_cast<size_t>(j)]) return depth - j;
  }
  return 0;
}

double TreeDistanceForLevel(int lca_level) {
  if (lca_level <= 0) return 0.0;
  return PowerOfTwo(lca_level + 2) - 4.0;
}

LeafPath AncestorPrefix(const LeafPath& path, int level) {
  const int depth = static_cast<int>(path.size());
  TBF_CHECK(level >= 0 && level <= depth) << "level " << level << " out of range";
  return path.substr(0, static_cast<size_t>(depth - level));
}

std::string LeafPathToString(const LeafPath& path) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += '.';
    out += std::to_string(static_cast<int>(path[i]));
  }
  return out;
}

LeafPath RandomLeafPath(int depth, int arity, Rng* rng) {
  LeafPath path;
  path.reserve(static_cast<size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    path.push_back(static_cast<char16_t>(rng->UniformInt(0, arity - 1)));
  }
  return path;
}

}  // namespace tbf
