// ReferenceServer — the semantics reference for ShardedTbfServer driven
// from one thread, small enough to check by eye.
//
// One HstAvailabilityMapIndex (the map-based index that specifies the flat
// index, NearestUniform draws included) holds every available worker,
// index ids recycle through a LIFO free list, and budgets are a plain
// per-user spend table against an optional lifetime cap. No shards, locks,
// packed codes or metrics: the engine at any shard count must reproduce
// this model's answers exactly.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "hst/complete_hst.h"
#include "hst/hst_index.h"
#include "hst/hst_map_index.h"
#include "serve/sharded_server.h"

namespace tbf {

class ReferenceServer {
 public:
  explicit ReferenceServer(std::shared_ptr<const CompleteHst> tree,
                           HstTieBreak tie_break = HstTieBreak::kCanonical,
                           uint64_t seed = 1,
                           std::optional<double> lifetime_budget = std::nullopt)
      : tree_(std::move(tree)),
        index_(tree_->depth(), tree_->arity()),
        tie_break_(tie_break),
        rng_(seed),
        lifetime_budget_(lifetime_budget) {}

  /// Registers or relocates `id`; reports must be valid leaves.
  Status RegisterWorker(const std::string& id, const LeafPath& leaf,
                        std::optional<double> epsilon = std::nullopt) {
    TBF_RETURN_NOT_OK(Charge(id, epsilon));
    if (auto it = workers_.find(id); it != workers_.end()) Remove(it);
    int index_id = static_cast<int>(owner_.size());
    if (free_ids_.empty()) {
      owner_.push_back(id);
    } else {
      index_id = free_ids_.back();
      free_ids_.pop_back();
      owner_[static_cast<size_t>(index_id)] = id;
    }
    index_.Insert(leaf, index_id);
    workers_[id] = {leaf, index_id};
    return Status::OK();
  }

  Status UnregisterWorker(const std::string& id) {
    auto it = workers_.find(id);
    if (it == workers_.end()) return Status::NotFound("unknown worker " + id);
    Remove(it);
    return Status::OK();
  }

  Result<DispatchResult> SubmitTask(const std::string& id, const LeafPath& leaf,
                                    std::optional<double> epsilon = std::nullopt) {
    TBF_RETURN_NOT_OK(Charge(id, epsilon));
    const auto nearest = tie_break_ == HstTieBreak::kCanonical
                             ? index_.Nearest(leaf)
                             : index_.NearestUniform(leaf, &rng_);
    DispatchResult result;
    if (!nearest) return result;
    result.worker = owner_[static_cast<size_t>(nearest->first)];
    result.reported_tree_distance =
        tree_->TreeDistanceForLcaLevel(nearest->second);
    Remove(workers_.find(*result.worker));
    ++assigned_tasks_;
    return result;
  }

  bool IsRegistered(const std::string& id) const {
    return workers_.count(id) > 0;
  }
  size_t available_workers() const { return workers_.size(); }
  size_t assigned_tasks() const { return assigned_tasks_; }
  size_t index_id_pool_size() const { return owner_.size(); }

 private:
  struct Worker {
    LeafPath leaf;
    int index_id = -1;
  };
  using Workers = std::unordered_map<std::string, Worker>;

  void Remove(Workers::iterator it) {
    index_.Remove(it->second.leaf, it->second.index_id);
    free_ids_.push_back(it->second.index_id);
    workers_.erase(it);
  }

  // Sequential composition: every declared report adds its epsilon, and
  // a report that would push the user past the cap is refused unrecorded.
  Status Charge(const std::string& user, std::optional<double> epsilon) {
    if (!lifetime_budget_) return Status::OK();
    if (!epsilon) return Status::InvalidArgument("no declared epsilon");
    double& spent = spent_[user];
    if (spent + *epsilon > *lifetime_budget_ * (1.0 + 1e-12)) {
      return Status::FailedPrecondition("lifetime budget exhausted for user " +
                                        user);
    }
    spent += *epsilon;
    return Status::OK();
  }

  std::shared_ptr<const CompleteHst> tree_;
  HstAvailabilityMapIndex index_;
  HstTieBreak tie_break_;
  Rng rng_;
  std::optional<double> lifetime_budget_;
  Workers workers_;
  std::vector<std::string> owner_;  // index id -> worker id
  std::vector<int> free_ids_;       // LIFO
  std::unordered_map<std::string, double> spent_;
  size_t assigned_tasks_ = 0;
};

}  // namespace tbf
