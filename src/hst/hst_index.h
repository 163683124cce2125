// Availability index over HST leaves — flat node-pool engine.
//
// The paper's HST-Greedy (Alg. 4) scans all unmatched workers per task,
// O(D n) per assignment. Because the tree distance between leaves depends
// only on their LCA level, the nearest available worker can instead be found
// by walking up from the task's leaf and probing subtree occupancy counts —
// O(c D) per query. This index maintains those counts under insert/remove
// and also enumerates workers in non-decreasing tree distance (used by the
// reachability case study, Sec. IV-C).
//
// Engine: a trie of occupied subtrees laid out in contiguous arrays — one
// int32 count per node, one arity-wide int32 child block per internal node,
// one sorted item vector per leaf node, all indexed by dense node ids. A
// query is pure pointer-free array walking: no hashing, no digit-path
// materialization, zero heap allocations (NearestK only allocates its
// result). Nodes are created lazily on first insert and kept (count 0) after
// their last remove, so a long-running server reuses them instead of
// churning the pool. The trade-off: pool memory is O(depth * arity) int32s
// per *distinct leaf ever occupied* — not per concurrent item — so a
// deployment cycling through the whole leaf space should plan for that
// ceiling (or periodically rebuild the index to compact it). The map-based
// original lives on as the test oracle tests/hst/hst_map_index.h;
// equivalence — including draw-for-draw identical NearestUniform
// randomization — is enforced by fuzz tests.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hst/leaf_code.h"

namespace tbf {

/// \brief Tie-breaking among equidistant items (the paper: "ties are
/// broken arbitrarily").
enum class HstTieBreak {
  /// Deterministic: (LCA level, leaf path, item id) lexicographic.
  kCanonical,
  /// Uniformly random among all items at the minimal tree distance —
  /// Bansal et al. (Algorithmica'14) style randomization; removes the
  /// systematic spatial bias of a fixed order.
  kUniformRandom,
};

/// \brief Multiset of items placed on HST leaves, supporting
/// nearest-by-tree-distance queries.
///
/// Tie-breaking is canonical and deterministic: among equidistant items the
/// one with the lexicographically smallest leaf path wins, and within a leaf
/// the smallest item id. HstGreedyMatcher's naive engine applies the same
/// rule so the two engines produce identical matchings.
///
/// Item ids must be unique and non-negative; they index a flat registration
/// array, so keep them dense (the matcher and server both do).
///
/// Not thread-safe; queries are const but share no mutable state, so
/// concurrent reads without writers are fine.
class HstAvailabilityIndex {
 public:
  /// `depth`/`arity` must match the CompleteHst the leaf codes come from
  /// (which guarantees LeafCodec::Fits).
  HstAvailabilityIndex(int depth, int arity);

  /// Adds `item_id` at `leaf`. Ids must be unique across the index.
  /// Digits are read straight out of the packed code by shift/mask — no
  /// unpacking into a scratch digit buffer anywhere in the index.
  void Insert(LeafCode leaf, int item_id);

  /// Removes `item_id` from `leaf`; the pair must be present.
  void Remove(LeafCode leaf, int item_id);

  /// Number of items currently present.
  size_t size() const { return size_; }

  bool empty() const { return size_ == 0; }

  /// \brief Nearest item to `query` by tree distance (canonical
  /// tie-breaking); nullopt when empty. Returns (item_id, lca_level).
  std::optional<std::pair<int, int>> Nearest(LeafCode query) const;

  /// \brief Like Nearest, but uniformly random among all items at the
  /// minimal tree distance (subtree-count-weighted descent, O(c D)).
  std::optional<std::pair<int, int>> NearestUniform(LeafCode query,
                                                    Rng* rng) const;

  /// \brief Up to `limit` items in non-decreasing tree distance from
  /// `query` (canonical order). Each entry is (item_id, lca_level).
  std::vector<std::pair<int, int>> NearestK(LeafCode query, size_t limit) const;

  /// \brief Codec of the index's leaf codes (never null).
  const LeafCodec* codec() const { return &codec_; }

 private:
  static constexpr int32_t kNoNode = -1;

  // Allocates a node; internal nodes get an arity-wide child block, leaf
  // nodes a slot in leaf_items_.
  int32_t NewNode(bool is_leaf);

  int32_t ChildAt(int32_t node, int digit) const {
    return children_[static_cast<size_t>(slot_[static_cast<size_t>(node)] + digit)];
  }

  int32_t ChildCount(int32_t node, int digit) const {
    const int32_t child = ChildAt(node, digit);
    return child == kNoNode ? 0 : count_[static_cast<size_t>(child)];
  }

  const std::vector<int>& ItemsOf(int32_t leaf_node) const {
    return leaf_items_[static_cast<size_t>(slot_[static_cast<size_t>(leaf_node)])];
  }

  // Fills nodes[d] with the node at digit-depth d along `query` when it
  // exists with count > 0, else kNoNode; returns the deepest live d.
  int WalkQueryPath(LeafCode query, int32_t* nodes) const;

  // Descends from `node` (digit-depth d) to the canonically smallest
  // occupied leaf, skipping child `skip_digit` at the first step (-1: none).
  int32_t DescendCanonical(int32_t node, int d, int skip_digit) const;

  // Appends items under `node` (digit-depth d) in canonical order, skipping
  // child `skip_digit` at the top (-1: none); stops at `limit`. Iterative
  // (explicit per-level cursor stack) — no recursion, no allocation beyond
  // `out` itself.
  void Collect(int32_t node, int d, int skip_digit, size_t limit, int level,
               std::vector<std::pair<int, int>>* out) const;

  int depth_;
  int arity_;
  size_t size_ = 0;
  LeafCodec codec_;

  std::vector<int32_t> count_;  // per node: live items in its subtree
  std::vector<int32_t> slot_;   // per node: child-block offset or leaf slot
  std::vector<int32_t> children_;  // arity_-wide blocks, kNoNode = absent
  std::vector<std::vector<int>> leaf_items_;  // sorted ascending
  std::vector<int32_t> node_of_item_;  // item id -> leaf node, kNoNode = absent
};

}  // namespace tbf
