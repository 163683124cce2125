#include "serve/sharded_server.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/fault.h"
#include "common/timer.h"
#include "obs/scoped_timer.h"

namespace tbf {

namespace {

// Acquires `mu`, recording only *contended* acquisitions into
// `wait_hist`: try_lock costs the same as an uncontended lock, so the
// fast path pays no clock read. Pair with std::adopt_lock.
inline void LockTimed(std::mutex& mu, obs::Histogram* wait_hist) {
  if (mu.try_lock()) return;
  WallTimer timer;
  mu.lock();
  const double elapsed = timer.ElapsedSeconds();
  wait_hist->Record(elapsed <= 0.0 ? 0
                                   : static_cast<uint64_t>(elapsed * 1e9));
}

// RAII in-flight tracking for admission control / degradation: entry
// increments the home shard's and the engine's counters, exit decrements
// them (relaxed — advisory pressure signals, not synchronization).
class InflightToken {
 public:
  InflightToken(std::atomic<size_t>* shard_count,
                std::atomic<size_t>* total_count)
      : shard_count_(shard_count), total_count_(total_count) {
    shard_count_->fetch_add(1, std::memory_order_relaxed);
    total_count_->fetch_add(1, std::memory_order_relaxed);
  }
  ~InflightToken() {
    shard_count_->fetch_sub(1, std::memory_order_relaxed);
    total_count_->fetch_sub(1, std::memory_order_relaxed);
  }
  InflightToken(const InflightToken&) = delete;
  InflightToken& operator=(const InflightToken&) = delete;

  /// In-flight count at this shard including this operation.
  size_t shard_backlog() const {
    return shard_count_->load(std::memory_order_relaxed);
  }

 private:
  std::atomic<size_t>* shard_count_;
  std::atomic<size_t>* total_count_;
};

// Admission control for an operation holding `inflight` at `shard`: the
// "serve.admission" fault site, then the shard's backlog bound. A refusal
// is counted in `shed_metric`. Callers run it before the budget charge: a
// shed report must not burn epsilon (the client will retry it verbatim).
Status Admit(const InflightToken& inflight, int shard, size_t max_backlog,
             obs::Counter* shed_metric) {
  Status admitted = TBF_FAULT_INJECT("serve.admission");
  if (admitted.ok() && max_backlog > 0 &&
      inflight.shard_backlog() > max_backlog) {
    admitted = Status::ResourceExhausted(
        "shard " + std::to_string(shard) + " backlog full (>" +
        std::to_string(max_backlog) + " in flight)");
  }
  if (!admitted.ok()) shed_metric->Add(1);
  return admitted;
}

}  // namespace

Result<std::unique_ptr<ShardedTbfServer>> ShardedTbfServer::Create(
    std::shared_ptr<const CompleteHst> tree,
    const ShardedServerOptions& options) {
  if (tree == nullptr) return Status::InvalidArgument("tree must not be null");
  if (options.lifetime_budget && (!std::isfinite(*options.lifetime_budget) ||
                                  *options.lifetime_budget <= 0.0)) {
    return Status::InvalidArgument(
        "lifetime budget must be positive and finite");
  }
  if (options.epoch_budget && (!std::isfinite(*options.epoch_budget) ||
                               *options.epoch_budget <= 0.0)) {
    return Status::InvalidArgument("epoch budget must be positive and finite");
  }
  if (!ShardRouter::Fits(tree->depth(), tree->arity(), options.num_shards)) {
    return Status::InvalidArgument(
        "num_shards must be in [1, arity^depth] (" +
        std::to_string(options.num_shards) + " requested)");
  }
  if (options.tie_break == HstTieBreak::kUniformRandom &&
      options.num_shards != 1) {
    // Uniform tie-breaking needs one global draw sequence over subtree
    // counts; per-shard draws would not compose into a uniform choice.
    return Status::InvalidArgument(
        "uniform-random tie-breaking requires num_shards == 1");
  }
  return std::unique_ptr<ShardedTbfServer>(
      new ShardedTbfServer(std::move(tree), options));
}

ShardedTbfServer::ShardedTbfServer(std::shared_ptr<const CompleteHst> tree,
                                   const ShardedServerOptions& options)
    : options_(options),
      router_(tree->depth(), tree->arity(), options.num_shards),
      rng_(options.seed) {
  shards_.reserve(static_cast<size_t>(options.num_shards));
  shard_inflight_.reserve(static_cast<size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(tree->depth(), tree->arity()));
    shard_inflight_.push_back(std::make_unique<std::atomic<size_t>>(0));
  }
  tree_ptr_.store(tree.get(), std::memory_order_release);
  tree_history_.push_back(std::move(tree));
  metrics_ = options.metrics != nullptr ? options.metrics
                                        : obs::MetricRegistry::Global();
  if (options_.epoch_budget || options_.lifetime_budget) {
    ledger_ = std::make_unique<EpochBudgetLedger>(
        options_.epoch_budget, options_.lifetime_budget, metrics_);
  }
  for (int s = 0; s < options.num_shards; ++s) {
    const std::string shard_label = std::to_string(s);
    shard_arrivals_metric_.push_back(metrics_->FindOrCreateCounter(
        obs::LabeledName("tbf_serve_worker_arrivals_total", "shard",
                         shard_label)));
    shard_departures_metric_.push_back(metrics_->FindOrCreateCounter(
        obs::LabeledName("tbf_serve_departures_total", "shard", shard_label)));
    shard_tasks_metric_.push_back(metrics_->FindOrCreateCounter(
        obs::LabeledName("tbf_serve_tasks_total", "shard", shard_label)));
    shard_assigned_metric_.push_back(metrics_->FindOrCreateCounter(
        obs::LabeledName("tbf_serve_assigned_total", "shard", shard_label)));
  }
  unassigned_metric_ =
      metrics_->FindOrCreateCounter("tbf_serve_unassigned_total");
  denied_metric_ = metrics_->FindOrCreateCounter("tbf_serve_denied_total");
  fanout_metric_ =
      metrics_->FindOrCreateCounter("tbf_serve_crossshard_fanout_total");
  shed_metric_ = metrics_->FindOrCreateCounter("tbf_robustness_shed_total");
  degraded_fanout_metric_ =
      metrics_->FindOrCreateCounter("tbf_robustness_degraded_fanouts_total");
  dispatch_latency_metric_ =
      metrics_->FindOrCreateHistogram("tbf_serve_dispatch_latency_ns");
  lock_wait_metric_ =
      metrics_->FindOrCreateHistogram("tbf_serve_lock_wait_ns");
  available_metric_ =
      metrics_->FindOrCreateGauge("tbf_serve_available_workers");
  republish_started_metric_ =
      metrics_->FindOrCreateCounter("tbf_republish_started_total");
  republish_rekeyed_metric_ =
      metrics_->FindOrCreateCounter("tbf_republish_rekeyed_workers_total");
  republish_swapped_metric_ =
      metrics_->FindOrCreateCounter("tbf_republish_swapped_shards_total");
  republish_aborted_metric_ =
      metrics_->FindOrCreateCounter("tbf_republish_aborted_total");
  tree_epoch_metric_ = metrics_->FindOrCreateGauge("tbf_serve_tree_epoch");
}

Status ShardedTbfServer::CheckPublishable(const CompleteHst* tree,
                                          const std::string& what) const {
  if (tree == nullptr) {
    return Status::InvalidArgument(what + ": tree must not be null");
  }
  if (tree->depth() != router_.depth() || tree->arity() != router_.arity()) {
    return Status::InvalidArgument(
        what + ": tree shape (depth " + std::to_string(tree->depth()) +
        ", arity " + std::to_string(tree->arity()) +
        ") must match the published shape (depth " +
        std::to_string(router_.depth()) + ", arity " +
        std::to_string(router_.arity()) +
        ") — live reports and shard routing are expressed in the published "
        "geometry");
  }
  return Status::OK();
}

void ShardedTbfServer::InstallTree(std::shared_ptr<const CompleteHst> tree,
                                   uint64_t epoch) {
  tree_ptr_.store(tree.get(), std::memory_order_release);
  tree_history_.push_back(std::move(tree));
  tree_epoch_.store(epoch, std::memory_order_release);
  tree_epoch_metric_->Set(static_cast<int64_t>(epoch));
}

Status ShardedTbfServer::ChargeIfRequired(
    const std::string& user, std::optional<double> declared_epsilon) {
  if (ledger_ == nullptr) return Status::OK();
  if (!declared_epsilon) {
    denied_metric_->Add(1);
    return Status::InvalidArgument(
        "budget enforcement is on: reports must declare their epsilon");
  }
  Status status;
  {
    std::lock_guard<std::mutex> lock(budget_mu_);
    status = ledger_->Charge(user, *declared_epsilon);
  }
  if (!status.ok()) denied_metric_->Add(1);
  return status;
}

Status ShardedTbfServer::BeginEpoch(int64_t epoch) {
  if (ledger_ == nullptr) return Status::OK();
  std::lock_guard<std::mutex> lock(budget_mu_);
  return ledger_->BeginEpoch(epoch);
}

// Callers hold pool_mu_ and fill the returned id's slot.
int ShardedTbfServer::AcquireIndexId() {
  if (!free_index_ids_.empty()) {
    const int index_id = free_index_ids_.back();
    free_index_ids_.pop_back();
    return index_id;
  }
  slots_.emplace_back();
  return static_cast<int>(slots_.size()) - 1;
}

// Callers hold pool_mu_.
void ShardedTbfServer::ReleaseIndexId(int index_id) {
  Slot& slot = slots_[static_cast<size_t>(index_id)];
  slot.id.clear();
  slot.shard = -1;
  free_index_ids_.push_back(index_id);
}

Status ShardedTbfServer::RegisterWorker(
    const std::string& worker_id, LeafCode code,
    std::optional<double> declared_epsilon) {
  // The flat index reads child tables by these digits: a bad code is
  // refused here instead of aborting (or reading out of bounds) below.
  TBF_RETURN_NOT_OK(tree().codec()->Validate(code));
  if (worker_id.empty()) {
    return Status::InvalidArgument("worker id must not be empty");
  }
  const int new_shard = router_.ShardOf(code, *tree().codec());
  InflightToken inflight(shard_inflight_[static_cast<size_t>(new_shard)].get(),
                         &total_inflight_);
  TBF_RETURN_NOT_OK(Admit(inflight, new_shard, options_.max_backlog_per_shard,
                          shed_metric_));
  // Charge next: a refused charge must leave the pool untouched.
  TBF_RETURN_NOT_OK(ChargeIfRequired(worker_id, declared_epsilon));
  for (;;) {
    // Peek at the worker's current shard to know which index mutexes the
    // mutation needs; revalidate after acquiring them (the worker may be
    // assigned, unregistered or relocated by a concurrent caller in
    // between — then retry with the fresh observation).
    int observed_shard = -1;
    {
      std::lock_guard<std::mutex> pool_lock(pool_mu_);
      auto it = index_of_.find(worker_id);
      if (it != index_of_.end()) {
        observed_shard = slots_[static_cast<size_t>(it->second)].shard;
      }
    }
    const int lo = observed_shard < 0 ? new_shard
                                      : std::min(observed_shard, new_shard);
    const int hi = observed_shard < 0 ? new_shard
                                      : std::max(observed_shard, new_shard);
    std::unique_lock<std::mutex> lock_lo(shards_[static_cast<size_t>(lo)]->mu);
    std::unique_lock<std::mutex> lock_hi;
    if (hi != lo) {
      lock_hi = std::unique_lock<std::mutex>(shards_[static_cast<size_t>(hi)]->mu);
    }
    std::lock_guard<std::mutex> pool_lock(pool_mu_);
    auto [it, fresh] = index_of_.try_emplace(worker_id, -1);
    const int current_shard =
        fresh ? -1 : slots_[static_cast<size_t>(it->second)].shard;
    if (current_shard != observed_shard) {  // raced: retry
      if (fresh) index_of_.erase(it);
      continue;
    }

    int& index_id = it->second;
    if (fresh) {
      available_.fetch_add(1, std::memory_order_relaxed);
      available_metric_->Add(1);
    } else {
      // Relocation: drop the old report before inserting the new one.
      shards_[static_cast<size_t>(current_shard)]->index.Remove(
          slots_[static_cast<size_t>(index_id)].code, index_id);
      ReleaseIndexId(index_id);
    }
    shard_arrivals_metric_[static_cast<size_t>(new_shard)]->Add(1);
    index_id = AcquireIndexId();
    shards_[static_cast<size_t>(new_shard)]->index.Insert(code, index_id);
    Slot& slot = slots_[static_cast<size_t>(index_id)];
    slot.id = worker_id;
    slot.code = code;
    slot.shard = new_shard;
    return Status::OK();
  }
}

Status ShardedTbfServer::UnregisterWorker(const std::string& worker_id) {
  for (;;) {
    int observed_shard = -1;
    {
      std::lock_guard<std::mutex> pool_lock(pool_mu_);
      auto it = index_of_.find(worker_id);
      if (it == index_of_.end()) {
        return Status::NotFound("unknown worker " + worker_id);
      }
      observed_shard = slots_[static_cast<size_t>(it->second)].shard;
    }
    std::unique_lock<std::mutex> shard_lock(
        shards_[static_cast<size_t>(observed_shard)]->mu);
    std::lock_guard<std::mutex> pool_lock(pool_mu_);
    auto it = index_of_.find(worker_id);
    if (it == index_of_.end()) {
      // Concurrently assigned or unregistered: gone either way.
      return Status::NotFound("unknown worker " + worker_id);
    }
    const int index_id = it->second;
    const Slot& slot = slots_[static_cast<size_t>(index_id)];
    if (slot.shard != observed_shard) continue;  // relocated: retry
    shards_[static_cast<size_t>(observed_shard)]->index.Remove(slot.code,
                                                               index_id);
    ReleaseIndexId(index_id);
    index_of_.erase(it);
    available_.fetch_sub(1, std::memory_order_relaxed);
    available_metric_->Add(-1);
    shard_departures_metric_[static_cast<size_t>(observed_shard)]->Add(1);
    return Status::OK();
  }
}

bool ShardedTbfServer::IsRegistered(const std::string& worker_id) const {
  std::lock_guard<std::mutex> pool_lock(pool_mu_);
  return index_of_.count(worker_id) > 0;
}

size_t ShardedTbfServer::index_id_pool_size() const {
  std::lock_guard<std::mutex> pool_lock(pool_mu_);
  return slots_.size();
}

size_t ShardedTbfServer::shard_size(int shard) const {
  std::lock_guard<std::mutex> lock(shards_[static_cast<size_t>(shard)]->mu);
  return shards_[static_cast<size_t>(shard)]->index.size();
}

// The shard's mutex must be held.
std::optional<std::pair<int, int>> ShardedTbfServer::QueryShard(
    int shard, LeafCode code) {
  HstAvailabilityIndex& index = shards_[static_cast<size_t>(shard)]->index;
  // Uniform ties are K == 1 only (enforced at Create), so the single
  // shard mutex also serializes rng_: one global draw sequence.
  return options_.tie_break == HstTieBreak::kCanonical
             ? index.Nearest(code)
             : index.NearestUniform(code, &rng_);
}

// The candidate's shard mutex and pool_mu_ must be held.
DispatchResult ShardedTbfServer::ConsumeCandidate(const Candidate& candidate) {
  Slot& slot = slots_[static_cast<size_t>(candidate.index_id)];
  shards_[static_cast<size_t>(slot.shard)]->index.Remove(slot.code,
                                                         candidate.index_id);
  index_of_.erase(slot.id);  // assigned: must register anew to serve again
  DispatchResult result;
  result.worker = std::move(slot.id);
  ReleaseIndexId(candidate.index_id);
  available_.fetch_sub(1, std::memory_order_relaxed);
  assigned_tasks_.fetch_add(1, std::memory_order_relaxed);
  available_metric_->Add(-1);
  shard_assigned_metric_[static_cast<size_t>(candidate.shard)]->Add(1);
  result.reported_tree_distance =
      tree().TreeDistanceForLcaLevel(candidate.lca_level);
  return result;
}

Result<DispatchResult> ShardedTbfServer::SubmitTask(
    const std::string& task_id, LeafCode code,
    std::optional<double> declared_epsilon) {
  TBF_RETURN_NOT_OK(tree().codec()->Validate(code));
  const int home = router_.ShardOf(code, *tree().codec());
  InflightToken inflight(shard_inflight_[static_cast<size_t>(home)].get(),
                         &total_inflight_);
  TBF_RETURN_NOT_OK(
      Admit(inflight, home, options_.max_backlog_per_shard, shed_metric_));
  TBF_RETURN_NOT_OK(ChargeIfRequired(task_id, declared_epsilon));
  shard_tasks_metric_[static_cast<size_t>(home)]->Add(1);
  // Dispatch latency covers the whole resolution, lock waits included
  // (histogram-only timer: no clock reads when metrics are off).
  obs::ScopedTimer dispatch_timer(dispatch_latency_metric_);

  // Fast path: probe the home shard only. A candidate whose LCA level is
  // at or below the cutoff beats every worker of every other shard (they
  // all differ from the task within the prefix digits), so the engine can
  // commit while holding a single shard mutex. With K == 1 the cutoff is
  // the full depth: the fast path always decides.
  {
    LockTimed(shards_[static_cast<size_t>(home)]->mu, lock_wait_metric_);
    std::lock_guard<std::mutex> home_lock(
        shards_[static_cast<size_t>(home)]->mu, std::adopt_lock);
    auto nearest = QueryShard(home, code);
    if (nearest && nearest->second <= router_.cutoff_level()) {
      std::lock_guard<std::mutex> pool_lock(pool_mu_);
      return ConsumeCandidate(Candidate{home, nearest->first, nearest->second});
    }
    if (!nearest && router_.num_shards() == 1) {
      unassigned_metric_->Add(1);
      return DispatchResult{};  // no worker available: task unassigned
    }
    // Graceful degradation, decided while still holding only the home
    // lock: under pressure (total in-flight count at or above the
    // threshold), or when the "serve.fanout" site fires, a boundary task
    // settles for the home shard's best candidate instead of sweeping all
    // K shard locks. Approximate — the true nearest may live in a
    // neighbouring shard — but counted, never silent.
    bool degrade =
        options_.degrade_fanout_inflight_threshold > 0 &&
        total_inflight_.load(std::memory_order_relaxed) >=
            options_.degrade_fanout_inflight_threshold;
    if (!degrade) {
      auto action = TBF_FAULT_ONHIT("serve.fanout");
      degrade = action && action->kind == fault::FaultKind::kDegrade;
    }
    if (degrade) {
      degraded_fanout_metric_->Add(1);
      if (nearest) {
        std::lock_guard<std::mutex> pool_lock(pool_mu_);
        return ConsumeCandidate(
            Candidate{home, nearest->first, nearest->second});
      }
      unassigned_metric_->Add(1);
      return DispatchResult{};  // degraded and home empty: unassigned
    }
  }

  // Slow path (task near a shard boundary, or home subtree empty up to
  // the prefix levels): take every shard mutex in ascending order and
  // resolve the canonical global minimum across per-shard candidates.
  // The home shard is re-queried — its state may have moved since the
  // fast-path probe.
  fanout_metric_->Add(1);
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (auto& shard : shards_) {
    LockTimed(shard->mu, lock_wait_metric_);
    shard_locks.emplace_back(shard->mu, std::adopt_lock);
  }
  std::lock_guard<std::mutex> pool_lock(pool_mu_);
  std::optional<Candidate> best;
  for (int s = 0; s < router_.num_shards(); ++s) {
    auto nearest = shards_[static_cast<size_t>(s)]->index.Nearest(code);
    if (!nearest) continue;
    // Canonical total order: (LCA level, worker leaf, index id) — exactly
    // the rule each index applies internally (unsigned code comparison is
    // lexicographic digit comparison), so the cross-shard minimum is the
    // choice one global index would have made.
    const LeafCode worker_key =
        slots_[static_cast<size_t>(nearest->first)].code;
    const LeafCode best_key =
        best ? slots_[static_cast<size_t>(best->index_id)].code : worker_key;
    if (!best || nearest->second < best->lca_level ||
        (nearest->second == best->lca_level &&
         (worker_key < best_key ||
          (worker_key == best_key && nearest->first < best->index_id)))) {
      best = Candidate{s, nearest->first, nearest->second};
    }
  }
  if (!best) {
    unassigned_metric_->Add(1);
    return DispatchResult{};  // all shards empty
  }
  return ConsumeCandidate(*best);
}

ShardedServerState ShardedTbfServer::ExportState() const {
  ShardedServerState state;
  state.assigned_tasks =
      static_cast<uint64_t>(assigned_tasks_.load(std::memory_order_relaxed));
  state.tree_epoch = tree_epoch_.load(std::memory_order_acquire);
  state.rng_state = rng_.SerializeState();
  {
    std::lock_guard<std::mutex> pool_lock(pool_mu_);
    state.pool_size = slots_.size();
    state.free_index_ids = free_index_ids_;
    // Index-id order: deterministic, reproduced by RestoreState (which
    // keeps every index id), and a single pass with no sort.
    state.workers.reserve(index_of_.size());
    for (size_t index_id = 0; index_id < slots_.size(); ++index_id) {
      const Slot& slot = slots_[index_id];
      if (slot.shard < 0) continue;  // a free slot
      ShardedServerState::Worker& w = state.workers.emplace_back();
      w.id = slot.id;
      w.code = slot.code;
      w.index_id = static_cast<int>(index_id);
      w.shard = slot.shard;
    }
  }
  if (ledger_ != nullptr) {
    std::lock_guard<std::mutex> lock(budget_mu_);
    state.ledger = ledger_->ExportState();
  }
  return state;
}

Status ShardedTbfServer::RestoreState(const ShardedServerState& state,
                                      std::shared_ptr<const CompleteHst> tree) {
  if ((state.ledger.has_value()) != (ledger_ != nullptr)) {
    return Status::InvalidArgument(
        "server state budget-ledger mismatch (checkpoint from different "
        "budget options?)");
  }
  TBF_RETURN_NOT_OK(CheckPublishable(tree.get(), "server state"));
  // The documented lock order: every shard mutex ascending, then the pool.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (auto& shard : shards_) shard_locks.emplace_back(shard->mu);
  std::lock_guard<std::mutex> pool_lock(pool_mu_);
  if (!index_of_.empty()) {
    return Status::FailedPrecondition(
        "RestoreState requires a freshly created engine");
  }
  // Validate everything before the first mutation, so a refused state
  // leaves the engine fresh and the index never sees a bad digit or a
  // duplicate item id. The held and free ids must partition
  // [0, pool_size): a pool larger than the two lists leaves an id neither
  // held nor free; otherwise the range and reuse checks below catch every
  // overlap.
  const size_t listed = state.workers.size() + state.free_index_ids.size();
  if (state.pool_size > listed) {
    return Status::InvalidArgument(
        "server state: a pool of " + std::to_string(state.pool_size) +
        " index ids leaves " + std::to_string(state.pool_size - listed) +
        " neither held nor free");
  }
  const size_t pool_size = static_cast<size_t>(state.pool_size);
  std::vector<uint8_t> id_taken(pool_size, 0);
  for (int free_id : state.free_index_ids) {
    if (free_id < 0 || static_cast<size_t>(free_id) >= pool_size) {
      return Status::InvalidArgument("server state: free id out of range");
    }
    if (id_taken[static_cast<size_t>(free_id)]++ != 0) {
      return Status::InvalidArgument("server state: free id " +
                                     std::to_string(free_id) +
                                     " listed twice");
    }
  }
  std::unordered_set<std::string_view> ids;
  for (const ShardedServerState::Worker& w : state.workers) {
    const auto refuse = [&w](const std::string& why) {
      return Status::InvalidArgument("server state: worker '" + w.id + "' " +
                                     why);
    };
    if (w.id.empty()) {
      return Status::InvalidArgument("server state: a worker has an empty id");
    }
    if (w.index_id < 0 || static_cast<size_t>(w.index_id) >= pool_size) {
      return refuse("holds an index id out of range");
    }
    if (!ids.insert(w.id).second) return refuse("is listed twice");
    if (id_taken[static_cast<size_t>(w.index_id)]++ != 0) {
      return refuse("holds index id " + std::to_string(w.index_id) +
                    ", which is already free or held");
    }
    if (w.shard < 0 || w.shard >= router_.num_shards()) {
      return Status::InvalidArgument("server state: shard out of range for '" +
                                     w.id + "'");
    }
    const Status valid = tree->codec()->Validate(w.code);
    if (!valid.ok()) return refuse("has a bad leaf: " + valid.message());
    const int route = router_.ShardOf(w.code, *tree->codec());
    if (route != w.shard) {
      return refuse("is stored on shard " + std::to_string(w.shard) +
                    " but its leaf routes to shard " + std::to_string(route));
    }
  }
  Rng rng = rng_;
  TBF_RETURN_NOT_OK(rng.RestoreState(state.rng_state));
  // The ledger validates its own input and restores all-or-nothing, so it
  // is the first (and only fallible) mutation.
  if (ledger_ != nullptr) {
    std::lock_guard<std::mutex> lock(budget_mu_);
    TBF_RETURN_NOT_OK(ledger_->RestoreState(*state.ledger));
  }
  rng_ = rng;
  slots_.assign(pool_size, Slot{});
  free_index_ids_ = state.free_index_ids;
  index_of_.reserve(state.workers.size());
  for (const ShardedServerState::Worker& w : state.workers) {
    slots_[static_cast<size_t>(w.index_id)] = Slot{w.id, w.code, w.shard};
    index_of_.emplace(w.id, w.index_id);
    shards_[static_cast<size_t>(w.shard)]->index.Insert(w.code, w.index_id);
  }
  available_.store(state.workers.size(), std::memory_order_relaxed);
  assigned_tasks_.store(static_cast<size_t>(state.assigned_tasks),
                        std::memory_order_relaxed);
  available_metric_->Set(static_cast<int64_t>(state.workers.size()));
  InstallTree(std::move(tree), state.tree_epoch);
  return Status::OK();
}

}  // namespace tbf
