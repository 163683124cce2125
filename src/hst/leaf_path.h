// Leaf addressing in a complete c-ary HST.
//
// Padding the HST to a complete c-ary tree (paper Alg. 1, lines 14-15)
// creates c^D leaves — far too many to materialize. A leaf is therefore
// identified by its *digit path*: one child index per level, from the root
// down, of length D. Fake subtrees exist only as digit combinations that no
// real point maps to. All tree geometry (LCA level, tree distance) is
// computable from digit paths alone.

#pragma once

#include <cstdint>
#include <string>

namespace tbf {

class Rng;

/// \brief Digit path of a leaf, root-first; digit j in [0, arity) selects the
/// child taken from the node at level D-j down to level D-j-1.
using LeafPath = std::u16string;

/// \brief Level of the lowest common ancestor of two leaves.
///
/// Both paths must have equal length D (checked). Returns 0 when a == b
/// (the "LCA" is the leaf itself, paper's L0(x) = {x}), else D - (index of
/// the first differing digit), in [1, D].
int LcaLevel(const LeafPath& a, const LeafPath& b);

/// \brief Tree distance between two leaves whose LCA sits at `lca_level`,
/// in the tree's own edge units: 0 for level 0, else 2^{L+2} - 4
/// (paper Sec. III-C: edges from level i to i+1 have length 2^{i+1}).
double TreeDistanceForLevel(int lca_level);

/// \brief Prefix of `path` identifying the leaf's ancestor at `level`
/// (length D - level); level 0 returns the full path, level D the empty
/// root prefix.
LeafPath AncestorPrefix(const LeafPath& path, int level);

/// \brief Renders a path as dot-separated digits, e.g. "0.2.1".
std::string LeafPathToString(const LeafPath& path);

/// \brief Uniformly random leaf of a (depth, arity) tree — one UniformInt
/// draw per digit. Synthetic-workload and test/bench helper.
LeafPath RandomLeafPath(int depth, int arity, Rng* rng);

}  // namespace tbf
