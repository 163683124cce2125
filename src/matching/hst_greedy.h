// HST-Greedy online matching — paper Algorithm 4 (after Meyerson et al.,
// SODA 2006): each arriving task takes the available worker nearest on the
// tree. Used by both Lap-HG (on Laplace-obfuscated, re-mapped leaves) and
// TBF (on leaves obfuscated by the HST mechanism).
//
// The matcher works on packed leaf codes (leaf_code.h): the scan engine's
// per-pair LCA is one XOR + count-leading-zeros, and the index engine runs
// on the flat node-pool trie.

#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "hst/complete_hst.h"
#include "hst/hst_index.h"
#include "hst/leaf_code.h"

namespace tbf {

/// \brief Search engine for the nearest-on-tree scan.
enum class HstEngine {
  kLinearScan,  ///< O(D n) per task — the paper's stated complexity
  kIndex,       ///< O(c D) per task via HstAvailabilityIndex (extension)
};

// HstTieBreak (canonical vs uniform-random) is defined in hst/hst_index.h;
// both engines produce identical matchings under the canonical rule
// (tested).

/// \brief Stateful online matcher over reported worker leaves; each Assign
/// consumes the returned worker.
class HstGreedyMatcher {
 public:
  /// `workers` are the *reported* (obfuscated) worker leaves; `depth` and
  /// `arity` describe the published complete HST, and every worker code
  /// must be valid for it (LeafCodec::Validate; CHECK-fails otherwise).
  /// `rng` is required when tie_break == kUniformRandom (not owned; must
  /// outlive the matcher).
  HstGreedyMatcher(std::vector<LeafCode> workers, int depth, int arity,
                   HstEngine engine = HstEngine::kLinearScan,
                   HstTieBreak tie_break = HstTieBreak::kCanonical,
                   Rng* rng = nullptr);

  /// \brief Assigns an available worker nearest on the tree to a task
  /// reported at leaf `task`; returns its id, or -1 when none remains.
  int Assign(LeafCode task);

  size_t available() const { return available_count_; }

 private:
  HstEngine engine_;
  HstTieBreak tie_break_;
  LeafCodec codec_;
  std::vector<LeafCode> workers_;  // reported leaves
  std::vector<bool> taken_;
  size_t available_count_;
  std::unique_ptr<HstAvailabilityIndex> index_;  // only for kIndex
  Rng* rng_ = nullptr;                           // only for kUniformRandom
};

}  // namespace tbf
