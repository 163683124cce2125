#include "matching/hst_greedy.h"

#include <utility>

#include "common/logging.h"

namespace tbf {
namespace {

// Canonical tie-break rule (LCA level, leaf, worker id): unsigned code
// order is lexicographic path order.
int ScanCanonical(const std::vector<LeafCode>& workers,
                  const std::vector<bool>& taken, const LeafCodec& codec,
                  LeafCode task) {
  int best = -1;
  int best_level = codec.depth() + 1;
  for (size_t i = 0; i < workers.size(); ++i) {
    if (taken[i]) continue;
    const int level = codec.LcaLevel(task, workers[i]);
    if (level < best_level ||
        (level == best_level &&
         workers[i] < workers[static_cast<size_t>(best)])) {
      best_level = level;
      best = static_cast<int>(i);
    }
  }
  return best;
}

// Reservoir sampling over the minimal-level workers: one pass, uniform
// among ties.
int ScanReservoir(const std::vector<LeafCode>& workers,
                  const std::vector<bool>& taken, const LeafCodec& codec,
                  LeafCode task, Rng* rng) {
  int best = -1;
  int best_level = codec.depth() + 1;
  int tie_count = 0;
  for (size_t i = 0; i < workers.size(); ++i) {
    if (taken[i]) continue;
    const int level = codec.LcaLevel(task, workers[i]);
    if (level < best_level) {
      best_level = level;
      best = static_cast<int>(i);
      tie_count = 1;
    } else if (level == best_level) {
      ++tie_count;
      if (rng->UniformInt(1, tie_count) == 1) best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

HstGreedyMatcher::HstGreedyMatcher(std::vector<LeafCode> workers, int depth,
                                   int arity, HstEngine engine,
                                   HstTieBreak tie_break, Rng* rng)
    : engine_(engine),
      tie_break_(tie_break),
      codec_(depth, arity),
      workers_(std::move(workers)),
      taken_(workers_.size(), false),
      available_count_(workers_.size()),
      rng_(rng) {
  TBF_CHECK(tie_break_ == HstTieBreak::kCanonical || rng_ != nullptr)
      << "kUniformRandom tie-breaking requires an rng";
  for (const LeafCode worker : workers_) {
    const Status valid = codec_.Validate(worker);
    TBF_CHECK(valid.ok()) << "worker leaf: " << valid.ToString();
  }
  if (engine_ == HstEngine::kIndex) {
    index_ = std::make_unique<HstAvailabilityIndex>(depth, arity);
    for (size_t i = 0; i < workers_.size(); ++i) {
      index_->Insert(workers_[i], static_cast<int>(i));
    }
  }
}

int HstGreedyMatcher::Assign(LeafCode code) {
  TBF_DCHECK(codec_.Validate(code).ok()) << "invalid task leaf";
  if (available_count_ == 0) return -1;
  int best = -1;
  if (engine_ == HstEngine::kIndex) {
    auto nearest = tie_break_ == HstTieBreak::kCanonical
                       ? index_->Nearest(code)
                       : index_->NearestUniform(code, rng_);
    if (nearest) {
      best = nearest->first;
      index_->Remove(workers_[static_cast<size_t>(best)], best);
    }
  } else {
    best = tie_break_ == HstTieBreak::kCanonical
               ? ScanCanonical(workers_, taken_, codec_, code)
               : ScanReservoir(workers_, taken_, codec_, code, rng_);
  }
  if (best >= 0) {
    taken_[static_cast<size_t>(best)] = true;
    --available_count_;
  }
  return best;
}

}  // namespace tbf
