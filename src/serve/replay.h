// Event-time replay: drives the sharded serving engine from a timestamped
// worker/task arrival stream.
//
// The paper's interaction model is inherently online — workers and tasks
// arrive interleaved in time and every assignment is irrevocable — but
// the experiment pipelines (matching/runner.h) replay "all workers, then
// all tasks". This loop replays a real schedule instead:
//
//   1. Events are grouped into fixed event-time windows (epochs).
//   2. Each epoch's arrivals are obfuscated client-side through the
//      batched code-native pipeline (TbfFramework::ObfuscateCodes, one
//      packed LeafCode per report, sampler per ReplayOptions::sampler).
//      Arrival i of the whole trace always draws from
//      ForkAt(obfuscation_seed stream, i), so reports are bit-identical
//      regardless of epoch length, thread count or shard count.
//   3. The obfuscated reports are dispatched into a ShardedTbfServer —
//      sequentially in event order (deterministic), or driven by one
//      lane per shard in parallel (parallel_dispatch). Tasks go to their
//      home shard's lane; all events of one worker share a lane, so each
//      worker's own arrival/departure order is preserved. Interleaving
//      *across* lanes is resolved by the engine's locks and is
//      scheduling-dependent.
//   4. Per-epoch privacy budgets roll over at every window boundary
//      (ShardedTbfServer::BeginEpoch -> EpochBudgetLedger).
//
// The report carries per-epoch stats plus every task's outcome, so a
// replay doubles as a measurement run (bench/serve_throughput.cc) and as
// a fixture for equivalence tests.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/tbf.h"
#include "hst/hst_index.h"
#include "obs/metrics.h"
#include "serve/sharded_server.h"
#include "serve/wal.h"
#include "workload/instance.h"

namespace tbf {

/// \brief What the replay loop does with a poison event — one whose
/// fields the loop cannot process (non-finite time or coordinates, time
/// regression, empty id, or a location so far out that x*x + y*y
/// overflows). Both policies apply the same predicate.
enum class PoisonPolicy {
  /// Abort the run with InvalidArgument on the first poison event
  /// (historical behavior, the default).
  kFail,
  /// Quarantine it: record (event index, id, cause) in
  /// ReplayReport::quarantined_events, count it, and continue
  /// deterministically with the remaining events. Quarantined events
  /// consume no obfuscation draws, so the surviving events' reports are
  /// bit-identical to a trace that never contained the poison.
  kQuarantine,
};

/// \brief One scheduled live republish (see ReplayOptions::republishes).
struct ReplayRepublish {
  /// Event-time epoch at whose window start the swap runs (the first
  /// window with epoch >= at_epoch, so a schedule entry inside an empty
  /// window still fires).
  int64_t at_epoch = 0;
  /// The new tree; must match the framework tree's depth and arity.
  std::shared_ptr<const CompleteHst> tree;
};

/// \brief Configuration of one replay run.
struct ReplayOptions {
  /// Event-time window per epoch (> 0, seconds of trace time).
  double epoch_seconds = 60.0;

  /// Spatial shards of the serving engine (>= 1).
  int num_shards = 1;

  /// Thread-pool width for obfuscation and parallel dispatch
  /// (<= 0: all hardware threads).
  int threads = 1;

  /// When true, each epoch's events are dispatched by one lane per
  /// shard, concurrently (tasks by home shard; a worker's events all
  /// share one lane so their relative order holds). When false, events
  /// are dispatched one by one in event order — fully deterministic, and
  /// with canonical tie-breaking draw-for-draw identical for every shard
  /// count.
  bool parallel_dispatch = false;

  /// Per-user budget caps (see ShardedServerOptions). When either is set,
  /// the loop declares the framework's epsilon for every report.
  std::optional<double> lifetime_budget;
  std::optional<double> epoch_budget;

  /// Tie-breaking (kUniformRandom requires num_shards == 1).
  HstTieBreak tie_break = HstTieBreak::kCanonical;

  /// Seed of the engine's tie-breaking rng.
  uint64_t server_seed = 1;

  /// Seed of the client-side obfuscation stream.
  uint64_t obfuscation_seed = 11;

  /// Mechanism sampler for the client-side obfuscation pass
  /// (TbfFramework::ObfuscateCodes): kWalk (Alg. 3) or the
  /// timing-oblivious kOblivious; nullopt means kWalk. Like the seeds, the
  /// sampler is part of a run's identity. Resuming a single-file
  /// checkpoint with a different sampler changes the obfuscation draw
  /// stream and is on the caller. A durable `recover` with a different
  /// sampler (or declared epsilon) re-draws reports that differ from the
  /// journaled ones and fails as a journal/state divergence.
  std::optional<SamplerKind> sampler;

  /// Poison-event handling (see PoisonPolicy).
  PoisonPolicy poison_policy = PoisonPolicy::kFail;

  /// Admission control and fan-out degradation, passed through to the
  /// engine (see ShardedServerOptions).
  size_t max_backlog_per_shard = 0;
  size_t degrade_fanout_inflight_threshold = 0;

  /// Crash-safe checkpoints: when nonempty, the loop writes an atomic
  /// (tmp + fsync + rename, CRC-framed) checkpoint of its full state to
  /// this path after every `checkpoint_every_epochs`-th epoch. A replay
  /// resumed from such a checkpoint continues draw-for-draw identically
  /// to the uninterrupted run (see docs/ROBUSTNESS.md).
  std::string checkpoint_path;
  int checkpoint_every_epochs = 1;

  /// Resume from `checkpoint_path` instead of starting at event 0. The
  /// trace, shard count, epoch length and seeds must match the
  /// checkpointed run (verified via fingerprints).
  bool resume_from_checkpoint = false;

  /// Durable serving (docs/ROBUSTNESS.md): when nonempty, the loop keeps
  /// a write-ahead journal (serve/wal.h), ordinal checkpoints and the
  /// outcome log in this directory, so a crash anywhere is recoverable
  /// field-for-field (set `recover`). The directory holds one run: a
  /// fresh run needs it missing or empty (FailedPrecondition when it holds
  /// a journal segment, checkpoint or outcome log). Requires sequential
  /// dispatch (the journal is an ordered log); excludes `checkpoint_path`.
  std::string durable_dir;

  /// Journal commit policy for durable runs (see WalFsyncPolicy).
  WalFsyncPolicy wal_fsync;

  /// Durable checkpoints retained in `durable_dir`; older ones are
  /// deleted and the journal is compacted below the oldest survivor
  /// (>= 1; 2 keeps a fallback if the newest write is torn).
  int keep_checkpoints = 2;

  /// Crash-anywhere recovery: before replaying, scan `durable_dir`
  /// (serve/recovery.h), repair the journal's torn tail and restore the
  /// newest valid checkpoint. The loop then continues from the
  /// checkpoint's cursor as a fresh run would, checking every record it
  /// produces against the journal suffix (Internal "journal/state
  /// divergence at lsn N" on the first difference) until the suffix is
  /// used up, and appending from there on. Fault plans armed for the
  /// original run must be armed again: injected stream faults and forced
  /// denials are re-decided, not read back. A fresh (empty) directory
  /// starts a normal run.
  bool recover = false;

  /// Export the engine's full final state (worker registry, free-list
  /// order, RNG, ledger, tree epoch) into ReplayReport::final_state —
  /// the equivalence oracle of the crash drills.
  bool export_final_state = false;

  /// Scheduled live republishes: entry {at_epoch, tree} swaps the
  /// engine's published tree (ShardedTbfServer::Republish — zero
  /// downtime, live workers re-keyed) at the start of the first event
  /// window whose epoch is >= at_epoch, before that window's budget
  /// rollover and dispatch. Entries must be strictly increasing in
  /// at_epoch with non-null trees of the framework tree's shape. Like the
  /// seeds, the schedule is part of a run's identity: checkpoints record
  /// the engine's tree epoch k, and resume restores the fresh engine onto
  /// entry k - 1's tree (the framework tree at k = 0) without running a
  /// republish — resuming with a different schedule is on the caller.
  std::vector<ReplayRepublish> republishes;
};

/// \brief Outcome of one dispatched task, read off its WalRecord. One row
/// per task dispatch, in dispatch order: a duplicated task has two rows, a
/// dropped or quarantined one none.
struct TaskOutcome {
  std::string task_id;
  Status status;  ///< admission result; OK even when no worker was free
  std::optional<std::string> worker;  ///< nullopt: unassigned
  double reported_tree_distance = 0.0;
};

/// \brief Per-epoch measurements. Counts are exact and identical whether
/// metrics are on or off (the outcome counts are copied from the epoch's
/// ReplayCounts); the epsilon fields are deltas of the engine ledger's
/// always-on Totals across this epoch's dispatch.
struct EpochStats {
  int64_t epoch = 0;
  size_t worker_arrivals = 0;
  size_t task_arrivals = 0;
  size_t departures = 0;
  size_t assigned = 0;
  size_t unassigned = 0;
  size_t denied = 0;  ///< reports refused (budget caps, forced refusals)
  double obfuscate_seconds = 0.0;
  double dispatch_seconds = 0.0;

  /// Epsilon admitted within this epoch (0 when budgets are off).
  double epsilon_spent = 0.0;
  /// Reports refused by the per-epoch cap within this epoch.
  uint64_t denied_epoch_budget = 0;
  /// Reports refused by the lifetime cap within this epoch.
  uint64_t denied_lifetime_budget = 0;

  /// Reports shed by admission control within this epoch.
  size_t shed = 0;
  /// Poison events quarantined within this epoch's window.
  size_t quarantined = 0;
};

/// \brief One quarantined poison event: where it sat in the trace and why
/// the loop refused to process it.
struct QuarantineRecord {
  uint64_t event_index = 0;  ///< index into EventTrace::events
  std::string id;            ///< the event's id ("" when that was the poison)
  std::string cause;         ///< human-readable reason
};

/// \brief The outcome counters of a replay, or of one piece of it (a
/// dispatch lane, an epoch), in the order of the checkpoint's `report`
/// record. Every event the loop handles produces one WalRecord, journaled
/// or not, and Add() is the only code that picks its counter.
struct ReplayCounts {
  uint64_t registered = 0;  ///< worker registrations accepted
  uint64_t assigned = 0;    ///< tasks given a worker
  uint64_t unassigned = 0;  ///< tasks admitted while no worker was free
  /// Arrivals and tasks refused other than by admission control: budget
  /// caps, forced refusals ("replay.budget", whatever their status) and
  /// any other engine error.
  uint64_t denied = 0;
  uint64_t shed = 0;  ///< refused by admission control (ResourceExhausted)
  uint64_t quarantined = 0;  ///< poison events quarantined, not dispatched
  /// Departures of workers already assigned or gone (expected churn).
  uint64_t missed_departures = 0;
  /// Events dispatched or quarantined.
  uint64_t processed_events = 0;
  /// Stream mutations fired by the armed fault plan (zero without one).
  uint64_t faults_dropped = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_reordered = 0;
  uint64_t faults_stalled = 0;
  uint64_t checkpoints_written = 0;  ///< by this run (resume restarts at 0)

  /// Counts one record: an arrival or task in exactly one of registered,
  /// assigned, unassigned, denied or shed, a missed departure, a
  /// quarantine, or a stream fault by its fault_kind. Dispatch and
  /// quarantine records also count as processed; other kinds add nothing.
  void Add(const WalRecord& rec);
  ReplayCounts& operator+=(const ReplayCounts& other);
  bool operator==(const ReplayCounts& other) const = default;
};

/// \brief Aggregate measurements of a replay run. The outcome counters
/// are the inherited ReplayCounts, the sum of every epoch's.
struct ReplayReport : ReplayCounts {
  size_t events = 0;
  size_t worker_arrivals = 0;
  size_t task_arrivals = 0;
  size_t departures = 0;
  size_t epochs = 0;

  /// The accounting identity, which RunEventReplay checks before it
  /// returns: every event lands in exactly one outcome bucket, so
  ///
  ///   registered + assigned + unassigned + denied + shed + quarantined
  ///     + departures_attempted == processed_events
  ///     == events - faults_dropped + faults_duplicated
  ///
  /// where departures_attempted sums the per-epoch departure counts
  /// (successful plus missed). Internal with both sides when it fails.
  Status CheckAccountingIdentity() const;

  /// True when this run resumed from a checkpoint or re-ran journaled
  /// work during recovery.
  bool resumed = false;
  /// Journaled dispatch records (arrivals, tasks, departures) recovery
  /// re-produced and verified (0 for fresh runs).
  uint64_t recovered_events = 0;
  /// Torn journal records dropped by the tail repair during recovery.
  uint64_t wal_truncated_records = 0;
  /// Scheduled republishes applied so far (resumed runs include those
  /// their checkpoint had applied, so the count matches the uninterrupted
  /// run).
  uint64_t republishes = 0;

  double obfuscate_seconds = 0.0;
  double dispatch_seconds = 0.0;
  double wall_seconds = 0.0;      ///< obfuscation + dispatch, whole trace
  double events_per_second = 0.0; ///< events / wall_seconds

  size_t available_workers_end = 0;  ///< pool size after the last event

  /// Per-task dispatch latency (ns): SubmitTask entry to resolution, from
  /// the run's tbf_serve_dispatch_latency_ns histogram (so within its
  /// power-of-two bucket error bound; 0 when metrics are disabled).
  double dispatch_p50_ns = 0.0;
  double dispatch_p95_ns = 0.0;
  double dispatch_p99_ns = 0.0;

  /// Whole-run privacy spend (ledger Totals; always on, exact).
  double epsilon_spent = 0.0;
  uint64_t denied_epoch_budget = 0;
  uint64_t denied_lifetime_budget = 0;

  /// Final snapshot of the run's private registry, isolated from the
  /// process-wide one: every tbf_serve_*, tbf_privacy_* and tbf_replay_*
  /// series of exactly this run, per-shard counters and the obfuscation
  /// latency included (docs/OBSERVABILITY.md has the catalog).
  obs::MetricsSnapshot metrics;

  std::vector<EpochStats> per_epoch;
  std::vector<TaskOutcome> task_outcomes;  ///< one per task dispatch

  /// Poison events quarantined by this run, in trace order (empty unless
  /// poison_policy == kQuarantine).
  std::vector<QuarantineRecord> quarantined_events;

  /// Engine state after the last event (ReplayOptions::export_final_state).
  std::optional<ShardedServerState> final_state;
};

/// \brief Replays `trace` against a fresh sharded engine built on
/// `framework`'s published tree. Events must be in nondecreasing time
/// order. The framework must outlive the call.
Result<ReplayReport> RunEventReplay(const TbfFramework& framework,
                                    const EventTrace& trace,
                                    const ReplayOptions& options = {});

}  // namespace tbf
