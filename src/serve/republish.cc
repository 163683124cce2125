// ShardedTbfServer::Republish — zero-downtime tree swap with live
// re-keying. See serve/republish.h for the lifecycle and
// docs/ROBUSTNESS.md for the crash-safety story.

#include "serve/republish.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/timer.h"
#include "serve/sharded_server.h"

namespace tbf {

namespace {

// Workers re-keyed per phase-A batch; each batch is one "republish.rekey"
// fault-site hit.
constexpr size_t kRekeyBatchSize = 1024;

// Translates one stored report old tree -> new tree. A report on a real
// leaf follows its predefined point (MapToNearest* is exact: a point in
// the set maps to its own leaf, so a bit-identical tree re-keys every
// report to itself). A report on a fake leaf — obfuscation lands there —
// keeps its digits verbatim: the digit combination exists in every tree
// of the same shape, and preserving it is what makes a no-op republish
// draw-for-draw equivalent to not republishing.
LeafCode RekeyReport(const CompleteHst& from, const CompleteHst& to,
                     LeafCode key, bool* fake) {
  if (std::optional<int> point = from.point_of_leaf(key)) {
    *fake = false;
    return to.MapToNearestLeafCode(from.points()[static_cast<size_t>(*point)]);
  }
  *fake = true;
  return key;
}

}  // namespace

Result<RepublishReport> ShardedTbfServer::Republish(
    std::shared_ptr<const CompleteHst> new_tree) {
  TBF_RETURN_NOT_OK(CheckPublishable(new_tree.get(), "republish"));
  // One republish at a time: the whole rekey + swap sequence runs against
  // a stable old tree (only Republish and RestoreState change the tree).
  std::lock_guard<std::mutex> republish_lock(republish_mu_);
  const CompleteHst& old_tree = tree();  // stable: republish_mu_ held
  republish_started_metric_->Add(1);
  RepublishReport rep;

  // Phase A — advisory re-key outside the locks. Snapshot the registry,
  // translate each worker's report in batches (each batch one
  // "republish.rekey" hit, ordered by worker id so chaos plans are
  // deterministic). Concurrent traffic proceeds; workers that churn
  // between snapshot and flip are re-keyed inline in phase B.
  struct Staged {
    LeafCode old_code = 0;
    LeafCode new_code = 0;
    bool fake = false;
  };
  std::vector<std::pair<std::string, LeafCode>> live;
  {
    std::lock_guard<std::mutex> pool_lock(pool_mu_);
    live.reserve(index_of_.size());
    for (const Slot& slot : slots_) {
      if (slot.shard >= 0) live.emplace_back(slot.id, slot.code);
    }
  }
  std::sort(live.begin(), live.end());
  WallTimer rekey_timer;
  std::unordered_map<std::string, Staged> staged;
  staged.reserve(live.size());
  for (size_t i = 0; i < live.size(); i += kRekeyBatchSize) {
    const Status injected =
        TBF_FAULT_INJECT_AT("republish.rekey", i / kRekeyBatchSize);
    if (!injected.ok()) {
      republish_aborted_metric_->Add(1);
      return injected;  // nothing applied yet: clean abort
    }
    const size_t end = std::min(live.size(), i + kRekeyBatchSize);
    for (size_t j = i; j < end; ++j) {
      Staged entry;
      entry.old_code = live[j].second;
      entry.new_code =
          RekeyReport(old_tree, *new_tree, live[j].second, &entry.fake);
      staged.emplace(live[j].first, entry);
    }
  }
  rep.rekey_seconds = rekey_timer.ElapsedSeconds();

  // Phase B — flip. All shard mutexes (ascending) + the pool: no
  // operation can be mid-mutation, so the swap is atomic with respect to
  // every arrival, task and departure. The fault site fires before any
  // mutation — an injected failure aborts with the engine untouched.
  WallTimer swap_timer;
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (auto& shard : shards_) shard_locks.emplace_back(shard->mu);
  std::lock_guard<std::mutex> pool_lock(pool_mu_);
  const Status injected = TBF_FAULT_INJECT_AT(
      "republish.swap", tree_epoch_.load(std::memory_order_relaxed));
  if (!injected.ok()) {
    republish_aborted_metric_->Add(1);
    return injected;
  }
  std::vector<HstAvailabilityIndex> fresh;
  fresh.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    fresh.emplace_back(new_tree->depth(), new_tree->arity());
  }
  for (size_t index_id = 0; index_id < slots_.size(); ++index_id) {
    Slot& slot = slots_[index_id];
    if (slot.shard < 0) continue;  // a free slot
    LeafCode new_code;
    bool fake = false;
    const auto it = staged.find(slot.id);
    if (it != staged.end() && it->second.old_code == slot.code) {
      new_code = it->second.new_code;
      fake = it->second.fake;
    } else {
      new_code = RekeyReport(old_tree, *new_tree, slot.code, &fake);
    }
    const int new_shard = router_.ShardOf(new_code, *new_tree->codec());
    if (new_shard != slot.shard) ++rep.relocated;
    slot.code = new_code;
    slot.shard = new_shard;
    fresh[static_cast<size_t>(new_shard)].Insert(new_code,
                                                  static_cast<int>(index_id));
    ++rep.workers_rekeyed;
    if (fake) {
      ++rep.fake_kept;
    } else {
      ++rep.real_remapped;
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->index = std::move(fresh[s]);
  }
  rep.tree_epoch = tree_epoch_.load(std::memory_order_relaxed) + 1;
  InstallTree(std::move(new_tree), rep.tree_epoch);
  rep.shards_swapped = static_cast<int>(shards_.size());
  rep.swap_seconds = swap_timer.ElapsedSeconds();
  republish_rekeyed_metric_->Add(static_cast<uint64_t>(rep.workers_rekeyed));
  republish_swapped_metric_->Add(static_cast<uint64_t>(rep.shards_swapped));
  return rep;
}

}  // namespace tbf
