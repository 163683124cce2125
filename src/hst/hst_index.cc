#include "hst/hst_index.h"

#include <algorithm>

#include "common/logging.h"

namespace tbf {

namespace {

// Query-path node buffer: inline for depths up to 64 levels, heap only
// for deeper binary trees (packed codes allow up to 128).
struct ScratchNodes {
  static constexpr int kStack = 65;

  explicit ScratchNodes(int depth) {
    if (depth + 1 <= kStack) {
      data = buf;
    } else {
      heap.resize(static_cast<size_t>(depth) + 1);
      data = heap.data();
    }
  }

  int32_t buf[kStack];
  std::vector<int32_t> heap;
  int32_t* data;
};

}  // namespace

HstAvailabilityIndex::HstAvailabilityIndex(int depth, int arity)
    : depth_(depth), arity_(arity), codec_(depth, arity) {
  NewNode(/*is_leaf=*/false);  // the root; depth >= 1 makes it internal
}

int32_t HstAvailabilityIndex::NewNode(bool is_leaf) {
  const int32_t id = static_cast<int32_t>(count_.size());
  count_.push_back(0);
  if (is_leaf) {
    slot_.push_back(static_cast<int32_t>(leaf_items_.size()));
    leaf_items_.emplace_back();
  } else {
    slot_.push_back(static_cast<int32_t>(children_.size()));
    children_.insert(children_.end(), static_cast<size_t>(arity_), kNoNode);
  }
  return id;
}

void HstAvailabilityIndex::Insert(LeafCode leaf, int item_id) {
  TBF_CHECK(item_id >= 0) << "item ids must be non-negative";
  if (item_id >= static_cast<int>(node_of_item_.size())) {
    node_of_item_.resize(static_cast<size_t>(item_id) + 1, kNoNode);
  }
  TBF_CHECK(node_of_item_[static_cast<size_t>(item_id)] == kNoNode)
      << "duplicate item id " << item_id;
  int32_t node = 0;
  ++count_[0];
  for (int d = 0; d < depth_; ++d) {
    const int digit = codec_.Digit(leaf, d);
    TBF_CHECK(digit < arity_) << "digit " << digit << " out of range";
    const size_t child_index =
        static_cast<size_t>(slot_[static_cast<size_t>(node)] + digit);
    int32_t child = children_[child_index];
    if (child == kNoNode) {
      child = NewNode(/*is_leaf=*/d + 1 == depth_);
      children_[child_index] = child;  // re-index: NewNode may reallocate
    }
    node = child;
    ++count_[static_cast<size_t>(node)];
  }
  std::vector<int>& items =
      leaf_items_[static_cast<size_t>(slot_[static_cast<size_t>(node)])];
  items.insert(std::lower_bound(items.begin(), items.end(), item_id), item_id);
  node_of_item_[static_cast<size_t>(item_id)] = node;
  ++size_;
}

void HstAvailabilityIndex::Remove(LeafCode leaf, int item_id) {
  TBF_CHECK(item_id >= 0 &&
            item_id < static_cast<int>(node_of_item_.size()) &&
            node_of_item_[static_cast<size_t>(item_id)] != kNoNode)
      << "item " << item_id << " not registered";
  // Resolve the full path before mutating anything: a mismatched (leaf,
  // id) pair must abort with the index untouched conceptually.
  ScratchNodes scratch(depth_);
  int32_t node = 0;
  scratch.data[0] = node;
  for (int d = 0; d < depth_; ++d) {
    const int digit = codec_.Digit(leaf, d);
    TBF_CHECK(digit < arity_) << "digit " << digit << " out of range";
    const int32_t child = node == kNoNode ? kNoNode : ChildAt(node, digit);
    node = child;
    scratch.data[d + 1] = node;
  }
  TBF_CHECK(node != kNoNode &&
            node == node_of_item_[static_cast<size_t>(item_id)])
      << "item " << item_id << " not registered on this leaf";
  for (int d = 0; d <= depth_; ++d) {
    int32_t& count = count_[static_cast<size_t>(scratch.data[d])];
    TBF_CHECK(count > 0) << "count underflow";
    --count;
  }
  std::vector<int>& items =
      leaf_items_[static_cast<size_t>(slot_[static_cast<size_t>(node)])];
  auto it = std::lower_bound(items.begin(), items.end(), item_id);
  TBF_CHECK(it != items.end() && *it == item_id)
      << "item " << item_id << " not on leaf";
  items.erase(it);
  node_of_item_[static_cast<size_t>(item_id)] = kNoNode;
  --size_;
}

int HstAvailabilityIndex::WalkQueryPath(LeafCode query, int32_t* nodes) const {
  nodes[0] = 0;
  int d_last = 0;
  for (int d = 1; d <= depth_; ++d) {
    const int32_t parent = nodes[d - 1];
    int32_t child = kNoNode;
    if (parent != kNoNode) {
      const int digit = codec_.Digit(query, d - 1);
      TBF_CHECK(digit < arity_) << "digit out of range";
      child = ChildAt(parent, digit);
      if (child != kNoNode && count_[static_cast<size_t>(child)] == 0) {
        child = kNoNode;
      }
    }
    nodes[d] = child;
    if (child != kNoNode) d_last = d;
  }
  return d_last;
}

int32_t HstAvailabilityIndex::DescendCanonical(int32_t node, int d,
                                               int skip_digit) const {
  while (d < depth_) {
    // One scan over the node's child block, base pointer hoisted out of
    // the digit loop (ChildAt re-reads slot_ per probe).
    const int32_t* block = &children_[static_cast<size_t>(
        slot_[static_cast<size_t>(node)])];
    int32_t next = kNoNode;
    for (int digit = 0; digit < arity_; ++digit) {
      if (digit == skip_digit) continue;
      const int32_t child = block[digit];
      if (child != kNoNode && count_[static_cast<size_t>(child)] > 0) {
        next = child;
        break;
      }
    }
    TBF_CHECK(next != kNoNode) << "inconsistent subtree counts";
    node = next;
    ++d;
    skip_digit = -1;  // only the top step excludes the query's branch
  }
  return node;
}

std::optional<std::pair<int, int>> HstAvailabilityIndex::Nearest(
    LeafCode query) const {
  if (size_ == 0) return std::nullopt;
  ScratchNodes scratch(depth_);
  const int d_last = WalkQueryPath(query, scratch.data);
  if (d_last == depth_) {
    return std::pair<int, int>(ItemsOf(scratch.data[depth_]).front(), 0);
  }
  const int32_t leaf = DescendCanonical(scratch.data[d_last], d_last,
                                        codec_.Digit(query, d_last));
  return std::pair<int, int>(ItemsOf(leaf).front(), depth_ - d_last);
}

std::optional<std::pair<int, int>> HstAvailabilityIndex::NearestUniform(
    LeafCode query, Rng* rng) const {
  TBF_CHECK(rng != nullptr) << "rng required";
  if (size_ == 0) return std::nullopt;

  // The draw sequence below (one UniformInt(1, total) per descent level,
  // then UniformInt(0, n-1) within the leaf) replicates the map-based
  // reference draw for draw; the fuzz test depends on it.
  auto pick_from_leaf = [&](int32_t leaf_node, int level) -> std::pair<int, int> {
    const std::vector<int>& items = ItemsOf(leaf_node);
    const int64_t k =
        rng->UniformInt(0, static_cast<int64_t>(items.size()) - 1);
    return {items[static_cast<size_t>(k)], level};
  };

  ScratchNodes scratch(depth_);
  const int d_last = WalkQueryPath(query, scratch.data);
  if (d_last == depth_) return pick_from_leaf(scratch.data[depth_], 0);

  const int level = depth_ - d_last;
  int32_t node = scratch.data[d_last];
  int skip = codec_.Digit(query, d_last);
  for (int d = d_last; d < depth_; ++d) {
    // An internal node's count is the sum of its children's, so the
    // candidate total needs no scan: subtract the skipped branch (dead at
    // the top step — its count is 0 — but keep the general form) and the
    // old count-scan fuses into the single pick-scan below, draw for draw
    // identical (same `total`, same UniformInt sequence).
    const int32_t* block = &children_[static_cast<size_t>(
        slot_[static_cast<size_t>(node)])];
    int64_t total = count_[static_cast<size_t>(node)];
    if (skip >= 0) {
      const int32_t skipped = block[skip];
      if (skipped != kNoNode) total -= count_[static_cast<size_t>(skipped)];
    }
    TBF_CHECK(total > 0) << "inconsistent subtree counts";
    int64_t target = rng->UniformInt(1, total);
    int32_t next = kNoNode;
    for (int digit = 0; digit < arity_; ++digit) {
      if (digit == skip) continue;
      const int32_t child = block[digit];
      if (child == kNoNode) continue;
      target -= count_[static_cast<size_t>(child)];
      if (target <= 0) {
        next = child;
        break;
      }
    }
    node = next;
    skip = -1;  // only the top step excludes the query's branch
  }
  return pick_from_leaf(node, level);
}

std::vector<std::pair<int, int>> HstAvailabilityIndex::NearestK(
    LeafCode query, size_t limit) const {
  std::vector<std::pair<int, int>> out;
  if (limit == 0 || size_ == 0) return out;
  // At most min(limit, size_) entries can come back; reserving up front
  // makes every emplace below allocation-free.
  out.reserve(std::min(limit, size_));

  ScratchNodes scratch(depth_);
  WalkQueryPath(query, scratch.data);

  // Level 0: items co-located on the query leaf itself.
  if (scratch.data[depth_] != kNoNode) {
    for (int id : ItemsOf(scratch.data[depth_])) {
      out.emplace_back(id, 0);
      if (out.size() >= limit) return out;
    }
  }

  // Level l >= 1: items under the level-l ancestor but outside the
  // level-(l-1) ancestor's subtree — the sibling set L_l(query).
  for (int level = 1; level <= depth_; ++level) {
    const int d = depth_ - level;
    const int32_t node = scratch.data[d];
    if (node == kNoNode) continue;
    const int32_t closer = scratch.data[d + 1] == kNoNode
                               ? 0
                               : count_[static_cast<size_t>(scratch.data[d + 1])];
    if (count_[static_cast<size_t>(node)] <= closer) continue;
    Collect(node, d, codec_.Digit(query, d), limit, level, &out);
    if (out.size() >= limit) return out;
  }
  return out;
}

void HstAvailabilityIndex::Collect(int32_t node, int d, int skip_digit,
                                   size_t limit, int level,
                                   std::vector<std::pair<int, int>>* out) const {
  if (out->size() >= limit) return;
  TBF_DCHECK(d < depth_) << "Collect starts on an internal node";
  // Iterative canonical DFS over occupied subtrees: nodes[h] is the node
  // at digit-depth d + h, cursor[h] the next child digit to probe there.
  // Replaces the recursive walk — no call overhead per level, and the
  // per-level state lives in two stack arrays.
  const int frames = depth_ - d + 1;
  ScratchNodes node_stack(frames - 1);
  ScratchNodes cursor_stack(frames - 1);
  int h = 0;
  node_stack.data[0] = node;
  cursor_stack.data[0] = 0;
  while (h >= 0) {
    if (d + h == depth_) {  // leaf frame: emit its items, then pop
      for (int id : ItemsOf(node_stack.data[h])) {
        out->emplace_back(id, level);
        if (out->size() >= limit) return;
      }
      --h;
      continue;
    }
    const int32_t* block = &children_[static_cast<size_t>(
        slot_[static_cast<size_t>(node_stack.data[h])])];
    int digit = cursor_stack.data[h];
    int32_t child = kNoNode;
    while (digit < arity_) {
      // Only the top frame excludes the query's own branch.
      if (h != 0 || digit != skip_digit) {
        const int32_t candidate = block[digit];
        if (candidate != kNoNode && count_[static_cast<size_t>(candidate)] > 0) {
          child = candidate;
          break;
        }
      }
      ++digit;
    }
    if (child == kNoNode) {  // children exhausted: pop
      --h;
      continue;
    }
    cursor_stack.data[h] = digit + 1;
    ++h;
    node_stack.data[h] = child;
    cursor_stack.data[h] = 0;
  }
}

}  // namespace tbf
