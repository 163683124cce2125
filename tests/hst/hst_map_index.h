// Reference availability index (hash-map based) — a test oracle.
//
// This is the original HstAvailabilityIndex implementation, kept verbatim
// as the golden reference for the flat node-pool engine in
// src/hst/hst_index.h: the fuzz and equivalence tests drive both through
// identical operation sequences and require byte-identical answers
// (including draw-for-draw identical NearestUniform randomization). It
// allocates and hashes a LeafPath per probe, so it is an order of magnitude
// slower; bench/micro_matching.cc times it next to the flat engine. Header
// only, because the test build compiles only *_test.cc files.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "hst/leaf_path.h"

namespace tbf {

/// \brief Map-based multiset of items on HST leaves; the semantics
/// specification for HstAvailabilityIndex.
class HstAvailabilityMapIndex {
 public:
  /// `depth`/`arity` must match the CompleteHst the leaf paths come from.
  HstAvailabilityMapIndex(int depth, int arity);

  /// Adds `item_id` at `leaf`. Ids must be unique across the index.
  void Insert(const LeafPath& leaf, int item_id);

  /// Removes `item_id` from `leaf`; the pair must be present.
  void Remove(const LeafPath& leaf, int item_id);

  /// Number of items currently present.
  size_t size() const { return size_; }

  bool empty() const { return size_ == 0; }

  /// \brief Nearest item to `query` by tree distance (canonical
  /// tie-breaking); nullopt when empty. Returns (item_id, lca_level).
  std::optional<std::pair<int, int>> Nearest(const LeafPath& query) const;

  /// \brief Like Nearest, but uniformly random among all items at the
  /// minimal tree distance (subtree-count-weighted descent, O(c D)).
  std::optional<std::pair<int, int>> NearestUniform(const LeafPath& query,
                                                    Rng* rng) const;

  /// \brief Up to `limit` items in non-decreasing tree distance from
  /// `query` (canonical order). Each entry is (item_id, lca_level).
  std::vector<std::pair<int, int>> NearestK(const LeafPath& query,
                                            size_t limit) const;

 private:
  // Count of items in the subtree identified by a root prefix.
  int CountAt(const LeafPath& prefix) const;

  // Appends items under `prefix` in canonical order, skipping the child
  // subtree `skip_digit` (pass -1 to skip none); stops once out->size()
  // reaches limit.
  void Collect(const LeafPath& prefix, int skip_digit, size_t limit, int level,
               std::vector<std::pair<int, int>>* out) const;

  int depth_;
  int arity_;
  size_t size_ = 0;
  std::unordered_map<LeafPath, int> subtree_count_;       // keyed by prefix
  std::unordered_map<LeafPath, std::set<int>> leaf_items_;  // keyed by full path
  std::unordered_map<int, LeafPath> leaf_of_item_;          // global id check
};

inline HstAvailabilityMapIndex::HstAvailabilityMapIndex(int depth, int arity)
    : depth_(depth), arity_(arity) {
  TBF_CHECK(depth >= 1) << "depth must be >= 1";
  TBF_CHECK(arity >= 2) << "arity must be >= 2";
}

inline void HstAvailabilityMapIndex::Insert(const LeafPath& leaf, int item_id) {
  TBF_CHECK(static_cast<int>(leaf.size()) == depth_) << "leaf depth mismatch";
  TBF_CHECK(leaf_of_item_.emplace(item_id, leaf).second)
      << "duplicate item id " << item_id;
  leaf_items_[leaf].insert(item_id);
  // Bump counts for every ancestor prefix, including the full path and the
  // empty root prefix.
  for (size_t len = 0; len <= leaf.size(); ++len) {
    ++subtree_count_[leaf.substr(0, len)];
  }
  ++size_;
}

inline void HstAvailabilityMapIndex::Remove(const LeafPath& leaf, int item_id) {
  auto registered = leaf_of_item_.find(item_id);
  TBF_CHECK(registered != leaf_of_item_.end() && registered->second == leaf)
      << "item " << item_id << " not registered on this leaf";
  leaf_of_item_.erase(registered);
  auto it = leaf_items_.find(leaf);
  TBF_CHECK(it != leaf_items_.end()) << "remove from empty leaf";
  size_t erased = it->second.erase(item_id);
  TBF_CHECK(erased == 1) << "item " << item_id << " not on leaf";
  if (it->second.empty()) leaf_items_.erase(it);
  for (size_t len = 0; len <= leaf.size(); ++len) {
    auto cit = subtree_count_.find(leaf.substr(0, len));
    TBF_CHECK(cit != subtree_count_.end()) << "count underflow";
    if (--cit->second == 0) subtree_count_.erase(cit);
  }
  --size_;
}

inline int HstAvailabilityMapIndex::CountAt(const LeafPath& prefix) const {
  auto it = subtree_count_.find(prefix);
  return it == subtree_count_.end() ? 0 : it->second;
}

inline std::optional<std::pair<int, int>> HstAvailabilityMapIndex::Nearest(
    const LeafPath& query) const {
  auto result = NearestK(query, 1);
  if (result.empty()) return std::nullopt;
  return result[0];
}

inline std::optional<std::pair<int, int>>
HstAvailabilityMapIndex::NearestUniform(const LeafPath& query, Rng* rng) const {
  TBF_CHECK(static_cast<int>(query.size()) == depth_) << "leaf depth mismatch";
  TBF_CHECK(rng != nullptr) << "rng required";
  if (size_ == 0) return std::nullopt;

  auto pick_from_leaf = [&](const LeafPath& leaf, int level)
      -> std::pair<int, int> {
    const std::set<int>& items = leaf_items_.at(leaf);
    auto it = items.begin();
    std::advance(it, rng->UniformInt(0, static_cast<int64_t>(items.size()) - 1));
    return {*it, level};
  };

  // Level 0: co-located items.
  if (CountAt(query) > 0) return pick_from_leaf(query, 0);

  // Find the minimal occupied level, then descend choosing children in
  // proportion to their subtree counts — uniform over the sibling set.
  for (int level = 1; level <= depth_; ++level) {
    LeafPath prefix = AncestorPrefix(query, level);
    int within = CountAt(prefix);
    if (within == 0) continue;  // the closer subtree was empty too
    int skip_digit = static_cast<int>(query[prefix.size()]);
    LeafPath node = prefix;
    int first_skip = skip_digit;
    while (static_cast<int>(node.size()) < depth_) {
      int total = 0;
      LeafPath child = node;
      child.push_back(0);
      for (int digit = 0; digit < arity_; ++digit) {
        if (digit == first_skip) continue;
        child[node.size()] = static_cast<char16_t>(digit);
        total += CountAt(child);
      }
      TBF_CHECK(total > 0) << "inconsistent subtree counts";
      int64_t target = rng->UniformInt(1, total);
      for (int digit = 0; digit < arity_; ++digit) {
        if (digit == first_skip) continue;
        child[node.size()] = static_cast<char16_t>(digit);
        target -= CountAt(child);
        if (target <= 0) break;
      }
      node = child;
      first_skip = -1;  // only the top step excludes the query's branch
    }
    return pick_from_leaf(node, level);
  }
  return std::nullopt;
}

inline std::vector<std::pair<int, int>> HstAvailabilityMapIndex::NearestK(
    const LeafPath& query, size_t limit) const {
  TBF_CHECK(static_cast<int>(query.size()) == depth_) << "leaf depth mismatch";
  std::vector<std::pair<int, int>> out;
  if (limit == 0 || size_ == 0) return out;

  // Level 0: items co-located on the query leaf itself.
  auto leaf_it = leaf_items_.find(query);
  if (leaf_it != leaf_items_.end()) {
    for (int id : leaf_it->second) {
      out.emplace_back(id, 0);
      if (out.size() >= limit) return out;
    }
  }

  // Level l >= 1: items in the subtree rooted at the query's level-l
  // ancestor but outside the level-(l-1) ancestor's subtree — exactly the
  // sibling set L_l(query), all at tree distance 2^{l+2}-4.
  for (int level = 1; level <= depth_; ++level) {
    LeafPath prefix = AncestorPrefix(query, level);
    int within = CountAt(prefix);
    int closer = CountAt(AncestorPrefix(query, level - 1));
    if (within <= closer) continue;  // no items with LCA exactly at `level`
    int skip_digit = static_cast<int>(query[prefix.size()]);
    Collect(prefix, skip_digit, limit, level, &out);
    if (out.size() >= limit) return out;
  }
  return out;
}

inline void HstAvailabilityMapIndex::Collect(
    const LeafPath& prefix, int skip_digit, size_t limit, int level,
    std::vector<std::pair<int, int>>* out) const {
  if (out->size() >= limit) return;
  if (static_cast<int>(prefix.size()) == depth_) {
    auto it = leaf_items_.find(prefix);
    if (it == leaf_items_.end()) return;
    for (int id : it->second) {
      out->emplace_back(id, level);
      if (out->size() >= limit) return;
    }
    return;
  }
  LeafPath child = prefix;
  child.push_back(0);
  for (int digit = 0; digit < arity_; ++digit) {
    if (digit == skip_digit) continue;
    child[prefix.size()] = static_cast<char16_t>(digit);
    if (CountAt(child) == 0) continue;
    Collect(child, /*skip_digit=*/-1, limit, level, out);
    if (out->size() >= limit) return;
  }
}

}  // namespace tbf
