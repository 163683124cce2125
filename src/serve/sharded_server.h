// ShardedTbfServer — the online serving engine: the untrusted
// crowdsourcing server of the paper's interaction model (Sec. II-A).
//
//   * It holds the published CompleteHst (published and reloaded as a
//     tree snapshot, hst/snapshot.h).
//   * It accepts worker registrations and task submissions as *obfuscated
//     leaves*; it never sees a true location, and its whole interface
//     speaks packed leaf codes (hst/leaf_code.h; every published tree has
//     a codec, so one 128-bit code per report is all the engine stores,
//     routes, indexes and journals).
//   * It assigns each task on arrival to the nearest available worker on
//     the tree (HST-Greedy, Alg. 4).
//   * It optionally enforces per-user privacy budgets: clients declare
//     the epsilon their report was drawn with, and repeated reports
//     compose additively against a lifetime cap and/or a per-epoch cap
//     (privacy/budget.h).
//
// Worker lifecycle: Register (join the pool / relocate with a fresh
// report) -> assigned by SubmitTask (leaves the pool; to serve again the
// worker registers anew, spending budget again) or Unregister (go offline).
//
// The engine partitions the leaf space into K spatial shards by leaf-code
// prefix (serve/shard_router.h); K = 1 is the default. Each shard owns its
// own HstAvailabilityIndex behind its own mutex (a striped lock over the
// leaf space), so event streams touching different subtrees proceed in
// parallel.
//
// Nearest-worker resolution stays *globally exact*: a task first probes
// its home shard only, and commits immediately when the candidate's LCA
// level is at or below the router's cutoff (no other shard can hold a
// strictly nearer worker — see shard_router.h for the proof sketch). Only
// tasks near a shard boundary — home subtree empty up to the prefix
// levels — fan out, locking all shards in ascending order and taking the
// canonical minimum across the per-shard candidates. Because the
// canonical order (LCA level, leaf code, index id) is a total order that
// partitioning preserves, the choice does not depend on K: driven
// sequentially with canonical tie-breaking, every K produces draw-for-draw
// the same assignments as one global index (tests/serve/
// sharded_server_test.cc checks this against a reference model).
//
// Shards share one worker registry (pool_mu_): a dense slot table indexed
// by index id, each slot holding its worker's id, report and shard (or
// marked free), one map from worker id to index id, and one LIFO free
// list. Ids recycle in the same order whatever K is, which is what makes
// the equivalence hold even through churn. Each operation does at most one
// string-keyed map operation under the locks, and the state export none: it
// is one pass over the slot table.
//
// Budgets: BeginEpoch rolls per-epoch accounting forward (the replay loop
// drives this from event time, serve/replay.h).
//
// Lock order (deadlock freedom): budget_mu_ alone; otherwise shard
// mutexes in ascending shard id, then pool_mu_. Uniform-random
// tie-breaking needs one global draw sequence and is therefore only
// supported at K = 1 (Create refuses otherwise).

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "hst/complete_hst.h"
#include "hst/hst_index.h"
#include "hst/leaf_code.h"
#include "obs/metrics.h"
#include "privacy/budget.h"
#include "serve/republish.h"
#include "serve/shard_router.h"

namespace tbf {

/// \brief Result of one task submission.
struct DispatchResult {
  /// Registration id of the assigned worker; empty if none was available.
  std::optional<std::string> worker;
  /// Tree distance (metric units) between the reported leaves.
  double reported_tree_distance = 0.0;
};

/// \brief Configuration of the sharded serving engine.
struct ShardedServerOptions {
  /// Spatial shards (>= 1; at most arity^depth). Any count produces the
  /// same assignments when driven sequentially.
  int num_shards = 1;

  /// Per-user lifetime epsilon cap: every declared report is charged, and
  /// a charge that would exceed the cap is refused. Only under this cap
  /// does the ledger keep (and the state export) a per-user lifetime
  /// table.
  std::optional<double> lifetime_budget;

  /// Per-user per-epoch epsilon cap; epochs advance via BeginEpoch. When
  /// either budget is set, every report must declare its epsilon.
  std::optional<double> epoch_budget;

  /// Tie-breaking; kUniformRandom requires num_shards == 1.
  HstTieBreak tie_break = HstTieBreak::kCanonical;

  /// Seed for randomized tie-breaking.
  uint64_t seed = 1;

  /// Admission control: maximum in-flight operations per shard (0 =
  /// unbounded). An operation arriving at a shard whose backlog is full is
  /// *shed* — refused with ResourceExhausted before any budget charge, and
  /// counted in tbf_robustness_shed_total — instead of queueing without
  /// bound behind the shard mutex.
  size_t max_backlog_per_shard = 0;

  /// Graceful degradation of cross-shard fan-out: when > 0 and the total
  /// in-flight operation count reaches this threshold, a boundary task
  /// resolves against its home shard only (approximate nearest instead of
  /// a full K-shard lock sweep), counted in
  /// tbf_robustness_degraded_fanouts_total — never silent. 0 = always
  /// exact. A threshold of 1 degrades every fan-out deterministically
  /// (useful for tests; any single-threaded driver always has exactly one
  /// operation in flight).
  size_t degrade_fanout_inflight_threshold = 0;

  /// Registry receiving the engine's tbf_serve_* series (and the
  /// ledger's tbf_privacy_* series when budgets are on); nullptr uses
  /// the process-wide registry. Must outlive the server. The replay loop
  /// passes a per-run registry so interval deltas are isolated.
  obs::MetricRegistry* metrics = nullptr;
};

/// \brief Full serializable state of a ShardedTbfServer (crash-safe replay
/// checkpoints). Everything is exported in a deterministic order (workers
/// by index id, ledger spends in first-charge order) that RestoreState
/// reproduces, so serialization is byte-stable without sorting. The index
/// ids the workers hold and the free ids partition [0, pool_size).
struct ShardedServerState {
  struct Worker {
    std::string id;
    LeafCode code = 0;  ///< packed report
    int index_id = -1;
    int shard = -1;
  };

  uint64_t assigned_tasks = 0;
  uint64_t tree_epoch = 0;  ///< republishes applied (published-tree version)
  std::string rng_state;            ///< Rng::SerializeState
  uint64_t pool_size = 0;           ///< index ids handed out so far
  std::vector<int> free_index_ids;  ///< recycling order matters
  std::vector<Worker> workers;      ///< index-id order
  std::optional<EpochBudgetLedger::State> ledger;
};

/// \brief Sharded online dispatch server on obfuscated leaves.
///
/// Thread-safe: registrations, submissions and departures may be issued
/// concurrently from any number of threads. Concurrent operations
/// linearize in some order consistent with per-shard arrival; driven from
/// a single thread the engine is fully deterministic.
class ShardedTbfServer {
 public:
  static Result<std::unique_ptr<ShardedTbfServer>> Create(
      std::shared_ptr<const CompleteHst> tree,
      const ShardedServerOptions& options = {});

  /// \brief Registers (or relocates) a worker at an obfuscated leaf.
  ///
  /// `declared_epsilon` is the budget the client spent producing the
  /// report; it is required (and charged per report) when the server
  /// enforces budgets. The charge happens first, and a refused charge
  /// leaves any previous registration untouched. The report stays packed
  /// through routing, locking and the per-shard trie. An empty worker id
  /// is refused with InvalidArgument.
  Status RegisterWorker(const std::string& worker_id, LeafCode code,
                        std::optional<double> declared_epsilon = std::nullopt);

  /// \brief Removes an available worker from the pool.
  Status UnregisterWorker(const std::string& worker_id);

  /// \brief True when `worker_id` is currently registered and available.
  bool IsRegistered(const std::string& worker_id) const;

  /// \brief Submits a task; assigns and consumes the globally nearest
  /// available worker (exact, across all shards). Budget rules apply to
  /// the task id exactly as to workers.
  Result<DispatchResult> SubmitTask(const std::string& task_id, LeafCode code,
                                    std::optional<double> declared_epsilon =
                                        std::nullopt);

  /// \brief Rolls per-epoch budget accounting forward to `epoch` (no-op
  /// when no budget is set; going backwards fails).
  Status BeginEpoch(int64_t epoch);

  /// \brief Atomically swaps the published tree for `new_tree` while the
  /// engine keeps serving — zero downtime, no dropped operation.
  ///
  /// `new_tree` must have the published shape (same depth and arity):
  /// live reports, shard routing and packed codes are all expressed in
  /// the published geometry, so republishing is re-learning the partition
  /// over the same grid, not changing the grid. The scale and point set
  /// may differ freely.
  ///
  /// Every live worker's stored report is re-keyed old-tree -> new-tree:
  /// a report sitting on a *real* leaf follows its predefined point
  /// through CompleteHst::MapToNearestLeafCode on the new tree; a report
  /// on a *fake* leaf (obfuscation can land there) keeps its digits
  /// verbatim — which is exactly what makes a republish of a bit-identical
  /// tree draw-for-draw equivalent to not republishing at all.
  ///
  /// Two phases: re-keying runs in batches outside the locks against a
  /// stable old tree (concurrent traffic proceeds); the flip then takes
  /// every shard mutex plus the pool, rebuilds the per-shard indexes and
  /// publishes the new tree. Fault sites "republish.rekey" (hit-indexed
  /// by batch ordinal) and "republish.swap" (hit-indexed by the current
  /// tree epoch, firing before any mutation) abort cleanly: a failed
  /// republish leaves the engine exactly as it was. Concurrent Republish
  /// calls serialize.
  Result<RepublishReport> Republish(
      std::shared_ptr<const CompleteHst> new_tree);

  /// Published-tree version: republishes applied so far, or the epoch
  /// RestoreState installed (0 for the construction tree).
  uint64_t tree_epoch() const {
    return tree_epoch_.load(std::memory_order_acquire);
  }

  /// Number of workers currently available for assignment.
  size_t available_workers() const {
    return available_.load(std::memory_order_relaxed);
  }

  /// Total tasks assigned so far.
  size_t assigned_tasks() const {
    return assigned_tasks_.load(std::memory_order_relaxed);
  }

  /// \brief Size of the shared index-id pool. Ids recycle through one
  /// free list across all shards on every removal path (assignment,
  /// unregister, relocation), so this stays bounded by the peak number of
  /// concurrently registered workers — exposed for monitoring and leak
  /// tests.
  size_t index_id_pool_size() const;

  /// Workers currently held by shard `shard` (monitoring).
  size_t shard_size(int shard) const;

  int num_shards() const { return router_.num_shards(); }
  const ShardRouter& router() const { return router_; }

  /// The currently published tree. References stay valid for the
  /// server's lifetime even across Republish (superseded trees are
  /// retained), but after a republish this accessor returns the *new*
  /// tree — keep the reference when you need one stable tree object.
  const CompleteHst& tree() const {
    return *tree_ptr_.load(std::memory_order_acquire);
  }

  /// The budget ledger, when either budget is set (else nullptr).
  /// Synchronize externally with concurrent operations before reading.
  const EpochBudgetLedger* ledger() const { return ledger_.get(); }

  /// The registry this engine's tbf_serve_* metrics land in (see
  /// docs/OBSERVABILITY.md for the catalog).
  obs::MetricRegistry* metrics() const { return metrics_; }

  /// \brief Snapshot of the engine's full mutable state, deterministic
  /// byte-for-byte for a quiescent engine. Do not call concurrently with
  /// operations.
  ShardedServerState ExportState() const;

  /// \brief Restores a state exported by ExportState into a freshly
  /// created engine with identical construction options (shard count,
  /// budgets). `tree` is the tree the exporting engine had published at
  /// state.tree_epoch (its construction tree at epoch 0); it becomes this
  /// engine's published tree at that epoch, with no republish run. After
  /// restore, the engine continues draw-for-draw as the exported one
  /// would have. Do not call concurrently with operations. Inconsistent
  /// input (a null tree or one of another shape, held and free index ids
  /// that do not partition [0, pool_size), an empty or duplicated worker
  /// id, a leaf invalid for `tree`, a shard its leaf does not route to, a
  /// bad RNG or ledger state) is refused with InvalidArgument before
  /// anything changes, so a refused state leaves the engine fresh.
  Status RestoreState(const ShardedServerState& state,
                      std::shared_ptr<const CompleteHst> tree);

 private:
  struct Shard {
    Shard(int depth, int arity) : index(depth, arity) {}
    mutable std::mutex mu;
    HstAvailabilityIndex index;
  };

  // One index id's slot: the worker holding it and its packed report, or
  // shard -1 when the id is free.
  struct Slot {
    std::string id;
    LeafCode code = 0;
    int shard = -1;
  };

  // A candidate assignment discovered in some shard's index.
  struct Candidate {
    int shard;
    int index_id;
    int lca_level;
  };

  ShardedTbfServer(std::shared_ptr<const CompleteHst> tree,
                   const ShardedServerOptions& options);

  Status ChargeIfRequired(const std::string& user,
                          std::optional<double> declared_epsilon);

  // OK when `tree` can be published: non-null and of the published shape
  // (live reports, packed codes and shard routing are expressed in it).
  Status CheckPublishable(const CompleteHst* tree,
                          const std::string& what) const;

  // Publishes `tree` as version `epoch`. Callers hold every shard mutex
  // and pool_mu_.
  void InstallTree(std::shared_ptr<const CompleteHst> tree, uint64_t epoch);

  // Shared LIFO id pool, guarded by pool_mu_.
  int AcquireIndexId();
  void ReleaseIndexId(int index_id);

  // Queries shard `shard` (its mutex must be held). Uses rng_ for
  // uniform-random tie-breaking (K == 1 only, so the shard mutex also
  // serializes the rng).
  std::optional<std::pair<int, int>> QueryShard(int shard, LeafCode code);

  // Consumes `candidate` as the assignment of one task. Its shard's mutex
  // must be held; takes pool_mu_ internally.
  DispatchResult ConsumeCandidate(const Candidate& candidate);

  ShardedServerOptions options_;
  ShardRouter router_;
  Rng rng_;

  // The published tree. tree_ptr_ is the lock-free read path (entry-point
  // validation, packing, distance reporting); tree_history_ owns every
  // tree ever published, so references handed out by tree() stay valid
  // across republishes for the server's whole lifetime. The flip happens
  // under ALL shard mutexes + pool_mu_ (so in-flight operations never
  // straddle it); tree_epoch_ counts flips. republish_mu_ serializes whole
  // Republish calls so re-keying always runs against a stable old tree.
  std::vector<std::shared_ptr<const CompleteHst>> tree_history_;
  std::atomic<const CompleteHst*> tree_ptr_{nullptr};
  std::atomic<uint64_t> tree_epoch_{0};
  std::mutex republish_mu_;

  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex pool_mu_;
  std::vector<Slot> slots_;  // by index id
  std::unordered_map<std::string, int> index_of_;  // worker id -> index id
  std::vector<int> free_index_ids_;

  mutable std::mutex budget_mu_;
  std::unique_ptr<EpochBudgetLedger> ledger_;

  std::atomic<size_t> available_{0};
  std::atomic<size_t> assigned_tasks_{0};

  // Load tracking for admission control and fan-out degradation: in-flight
  // operation counts, incremented on entry to a (Register|Submit|
  // Unregister)Impl and decremented on exit (relaxed; advisory pressure
  // signals, not synchronization).
  std::vector<std::unique_ptr<std::atomic<size_t>>> shard_inflight_;
  std::atomic<size_t> total_inflight_{0};

  // Metrics handles (resolved once at construction; mutations on the hot
  // path are striped relaxed atomics, compiled out under
  // TBF_METRICS_DISABLED). Per-shard vectors are indexed by shard id.
  obs::MetricRegistry* metrics_ = nullptr;
  std::vector<obs::Counter*> shard_arrivals_metric_;
  std::vector<obs::Counter*> shard_departures_metric_;
  std::vector<obs::Counter*> shard_tasks_metric_;
  std::vector<obs::Counter*> shard_assigned_metric_;
  obs::Counter* unassigned_metric_ = nullptr;
  obs::Counter* denied_metric_ = nullptr;
  obs::Counter* fanout_metric_ = nullptr;
  obs::Counter* shed_metric_ = nullptr;
  obs::Counter* degraded_fanout_metric_ = nullptr;
  obs::Histogram* dispatch_latency_metric_ = nullptr;
  obs::Histogram* lock_wait_metric_ = nullptr;
  obs::Gauge* available_metric_ = nullptr;
  obs::Counter* republish_started_metric_ = nullptr;
  obs::Counter* republish_rekeyed_metric_ = nullptr;
  obs::Counter* republish_swapped_metric_ = nullptr;
  obs::Counter* republish_aborted_metric_ = nullptr;
  obs::Gauge* tree_epoch_metric_ = nullptr;
};

}  // namespace tbf
