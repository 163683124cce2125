#include "serve/replay.h"

#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "serve/recovery.h"
#include "serve/sharded_server.h"
#include "serve/wal.h"

namespace tbf {

namespace {

// One epoch's worth of dispatch work for a single event, pre-resolved to
// the obfuscated report and its home lane.
struct PreparedEvent {
  const TimedEvent* event = nullptr;
  uint64_t event_index = 0;  // absolute index into EventTrace::events
  int report_index = -1;  // into the epoch's obfuscated batch (arrivals)
  int task_slot = -1;     // into ReplayReport::task_outcomes (tasks)
};

// The poison causes whose kFail messages predate the quarantine policy.
constexpr char kNonFiniteTime[] = "non-finite event time";
constexpr char kTimeRegressed[] =
    "event time regressed below preceding surviving event";

// Why the loop cannot serve `event`, or nullptr when it can — the one
// poison predicate of both policies. `last_time` is the time of the
// preceding surviving event (nullopt before the first).
const char* PoisonCause(const TimedEvent& event,
                        std::optional<double> last_time) {
  if (!std::isfinite(event.time)) return kNonFiniteTime;
  if (last_time && event.time < *last_time) return kTimeRegressed;
  if (event.id.empty()) return "empty event id";
  if (event.kind == EventKind::kWorkerDeparture) return nullptr;
  const Point& p = event.location;
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
    return "non-finite location coordinates";
  }
  if (!std::isfinite(p.x * p.x + p.y * p.y)) {
    return "location too far out: its squared norm overflows";
  }
  return nullptr;
}

}  // namespace

void ReplayCounts::Add(const WalRecord& rec) {
  switch (rec.kind) {
    case WalRecordKind::kWorkerArrival:
    case WalRecordKind::kTaskArrival: {
      ++processed_events;
      const auto code = static_cast<StatusCode>(rec.outcome.status_code);
      if (rec.outcome.forced) {
        ++denied;
      } else if (code == StatusCode::kOk) {
        if (rec.kind == WalRecordKind::kWorkerArrival) {
          ++registered;
        } else {
          ++(rec.outcome.has_worker ? assigned : unassigned);
        }
      } else if (code == StatusCode::kResourceExhausted) {
        ++shed;
      } else {
        ++denied;
      }
      return;
    }
    case WalRecordKind::kWorkerDeparture:
      ++processed_events;
      if (rec.missed) ++missed_departures;
      return;
    case WalRecordKind::kQuarantine:
      ++processed_events;
      ++quarantined;
      return;
    case WalRecordKind::kStreamFault:
      switch (rec.fault_kind) {
        case 0: ++faults_dropped; break;
        case 1: ++faults_duplicated; break;
        case 2: ++faults_reordered; break;
        case 3: ++faults_stalled; break;
      }
      return;
    default:
      return;
  }
}

ReplayCounts& ReplayCounts::operator+=(const ReplayCounts& other) {
  registered += other.registered;
  assigned += other.assigned;
  unassigned += other.unassigned;
  denied += other.denied;
  shed += other.shed;
  quarantined += other.quarantined;
  missed_departures += other.missed_departures;
  processed_events += other.processed_events;
  faults_dropped += other.faults_dropped;
  faults_duplicated += other.faults_duplicated;
  faults_reordered += other.faults_reordered;
  faults_stalled += other.faults_stalled;
  checkpoints_written += other.checkpoints_written;
  return *this;
}

Status ReplayReport::CheckAccountingIdentity() const {
  uint64_t departures_attempted = 0;
  for (const EpochStats& e : per_epoch) departures_attempted += e.departures;
  const uint64_t buckets = registered + assigned + unassigned + denied +
                           shed + quarantined + departures_attempted;
  const uint64_t stream = events - faults_dropped + faults_duplicated;
  if (buckets == processed_events && processed_events == stream) {
    return Status::OK();
  }
  return Status::Internal(
      "replay accounting identity broken: outcome buckets sum to " +
      std::to_string(buckets) + ", processed_events is " +
      std::to_string(processed_events) + ", the stream holds " +
      std::to_string(stream) + " events");
}

Result<ReplayReport> RunEventReplay(const TbfFramework& framework,
                                    const EventTrace& trace,
                                    const ReplayOptions& options) {
  if (!std::isfinite(options.epoch_seconds) || options.epoch_seconds <= 0.0) {
    return Status::InvalidArgument("epoch_seconds must be positive and finite");
  }
  // Each run instruments a private registry: interval deltas, latency
  // percentiles and per-shard counters then describe exactly this run,
  // isolated from the process-wide registry and concurrent replays.
  // Declared before the server so every engine handle stays valid for
  // the server's whole lifetime.
  obs::MetricRegistry run_metrics;
  ReplayReport report;
  TBF_ASSIGN_OR_RETURN(
      ReplayStore store,
      ReplayStore::Create(options, trace, &run_metrics, &report));
  for (size_t i = 0; i < options.republishes.size(); ++i) {
    const ReplayRepublish& entry = options.republishes[i];
    if (entry.tree == nullptr) {
      return Status::InvalidArgument(
          "republish schedule entry " + std::to_string(i) +
          ": tree must not be null");
    }
    if (entry.tree->depth() != framework.tree().depth() ||
        entry.tree->arity() != framework.tree().arity()) {
      return Status::InvalidArgument(
          "republish schedule entry " + std::to_string(i) +
          ": tree shape must match the framework tree (live reports are "
          "expressed in the published geometry)");
    }
    if (i > 0 && entry.at_epoch <= options.republishes[i - 1].at_epoch) {
      return Status::InvalidArgument(
          "republish schedule must be strictly increasing in at_epoch "
          "(entry " + std::to_string(i) + ")");
    }
  }

  const size_t n = trace.events.size();
  // Poison handling, one predicate for both policies (PoisonCause). kFail
  // aborts the whole run up front on the first poison event. kQuarantine
  // marks each one with its cause instead: surviving events behave
  // exactly as if the trace never contained the poison (time ordering is
  // checked across survivors only, and quarantined events consume no
  // obfuscation draws).
  std::vector<const char*> poison(n, nullptr);  // cause, or none
  {
    std::optional<double> last_time;
    for (size_t i = 0; i < n; ++i) {
      const char* cause = PoisonCause(trace.events[i], last_time);
      if (cause == nullptr) {
        last_time = trace.events[i].time;
        continue;
      }
      if (options.poison_policy == PoisonPolicy::kFail) {
        const std::string where = " (event " + std::to_string(i) + ")";
        if (cause == kNonFiniteTime) {
          return Status::InvalidArgument("event times must be finite" + where);
        }
        if (cause == kTimeRegressed) {
          return Status::InvalidArgument(
              "events must be in nondecreasing time order" + where);
        }
        return Status::InvalidArgument(cause + where);
      }
      poison[i] = cause;
    }
  }

  obs::Histogram* obfuscate_hist =
      run_metrics.FindOrCreateHistogram("tbf_replay_obfuscate_latency_ns");
  obs::Counter* quarantined_metric =
      run_metrics.FindOrCreateCounter("tbf_robustness_quarantined_total");

  ShardedServerOptions server_options;
  server_options.num_shards = options.num_shards;
  server_options.lifetime_budget = options.lifetime_budget;
  server_options.epoch_budget = options.epoch_budget;
  server_options.tie_break = options.tie_break;
  server_options.seed = options.server_seed;
  server_options.max_backlog_per_shard = options.max_backlog_per_shard;
  server_options.degrade_fanout_inflight_threshold =
      options.degrade_fanout_inflight_threshold;
  server_options.metrics = &run_metrics;
  TBF_ASSIGN_OR_RETURN(std::unique_ptr<ShardedTbfServer> server,
                       ShardedTbfServer::Create(framework.tree_ptr(),
                                                server_options));

  const bool budgets_on =
      options.lifetime_budget.has_value() || options.epoch_budget.has_value();
  const std::optional<double> declared_epsilon =
      budgets_on ? std::optional<double>(framework.epsilon()) : std::nullopt;

  for (const TimedEvent& event : trace.events) {
    switch (event.kind) {
      case EventKind::kWorkerArrival: ++report.worker_arrivals; break;
      case EventKind::kTaskArrival: ++report.task_arrivals; break;
      case EventKind::kWorkerDeparture: ++report.departures; break;
    }
  }
  report.events = n;
  report.task_outcomes.reserve(report.task_arrivals);

  // Epoch of every event, resolved up front: survivors by event time
  // relative to the first survivor, poison events by the window that is
  // open where they sit in the trace (so quarantine lands in a
  // deterministic epoch even for NaN times).
  std::vector<int64_t> event_epoch(n, 0);
  {
    double t0 = 0.0;
    bool have_t0 = false;
    int64_t last_epoch = 0;
    for (size_t i = 0; i < n; ++i) {
      if (poison[i] != nullptr) {
        event_epoch[i] = last_epoch;
        continue;
      }
      if (!have_t0) {
        t0 = trace.events[i].time;
        have_t0 = true;
      }
      last_epoch = static_cast<int64_t>(
          std::floor((trace.events[i].time - t0) / options.epoch_seconds));
      event_epoch[i] = last_epoch;
    }
  }

  ThreadPool pool(options.threads);
  const Rng obfuscation_stream(options.obfuscation_seed);
  // Obfuscate, route and dispatch entirely on LeafCodes (one 128-bit code
  // per report, no digit path materialized per event).
  uint64_t arrivals_obfuscated = 0;  // global ForkAt offset
  int next_task_slot = 0;
  size_t begin = 0;
  size_t next_republish = 0;  // cursor into options.republishes

  // The store's restore point, if any, into the fresh engine and the loop
  // cursor; the store has checked it belongs to this run and its rows.
  const auto restore = [&](ReplayCheckpoint& ckpt) -> Status {
    // Worker codes in the state are expressed in the tree the checkpointed
    // run had published at its tree epoch: the framework tree at epoch 0,
    // schedule entry k - 1 at epoch k. RestoreState installs it directly;
    // the checkpoint's metric snapshot already counts those republishes.
    const uint64_t tree_epoch = ckpt.server.tree_epoch;
    if (tree_epoch > options.republishes.size()) {
      return Status::FailedPrecondition(
          "checkpoint tree epoch " + std::to_string(tree_epoch) +
          " exceeds the republish schedule (" +
          std::to_string(options.republishes.size()) +
          " entries) — resumed with a different schedule?");
    }
    next_republish = static_cast<size_t>(tree_epoch);
    report.republishes = tree_epoch;
    // Engine state first, then the metrics snapshot: Merge must see the
    // engine's metric kinds already registered.
    TBF_RETURN_NOT_OK(server->RestoreState(
        ckpt.server, tree_epoch == 0
                         ? framework.tree_ptr()
                         : options.republishes[tree_epoch - 1].tree));
    run_metrics.Merge(ckpt.metrics);
    // checkpoints_written counts only this run's writes — not restored.
    static_cast<ReplayCounts&>(report) = ckpt.report;
    report.checkpoints_written = 0;
    report.per_epoch = std::move(ckpt.per_epoch);
    report.quarantined_events = std::move(ckpt.quarantined_events);
    report.task_outcomes = std::move(ckpt.task_outcomes);
    begin = static_cast<size_t>(ckpt.next_event);
    arrivals_obfuscated = ckpt.arrivals_obfuscated;
    next_task_slot = static_cast<int>(ckpt.next_task_slot);
    return Status::OK();
  };
  TBF_RETURN_NOT_OK(store.Open(restore));

  WallTimer total_timer;

  while (begin < n) {
    const int64_t epoch = event_epoch[begin];
    size_t end = begin;
    while (end < n && event_epoch[end] == epoch) ++end;

    // Scheduled live republishes fire at the window boundary, before the
    // window's obfuscation, budget rollover and dispatch: the swap is
    // atomic with respect to every event, so nothing in this window can
    // straddle it.
    while (next_republish < options.republishes.size() &&
           options.republishes[next_republish].at_epoch <= epoch) {
      Result<RepublishReport> republished =
          server->Republish(options.republishes[next_republish].tree);
      if (!republished.ok()) return republished.status();
      ++next_republish;
      ++report.republishes;
      WalRecord rec;
      rec.kind = WalRecordKind::kRepublish;
      rec.tree_epoch = server->tree_epoch();
      TBF_RETURN_NOT_OK(store.Record(&rec));
    }
    {
      WalRecord rec;
      rec.kind = WalRecordKind::kEpochBegin;
      rec.epoch = epoch;
      rec.begin_index = static_cast<uint64_t>(begin);
      rec.arrivals_obfuscated = arrivals_obfuscated;
      rec.next_task_slot = next_task_slot;
      TBF_RETURN_NOT_OK(store.Record(&rec));
    }

    EpochStats stats;
    stats.epoch = epoch;
    ReplayCounts tally;  // this epoch's outcomes

    // Quarantines and stream faults are tallied and journaled like
    // dispatch records; a quarantine is also kept as a report row.
    const auto quarantine = [&](size_t i, std::string cause) -> Status {
      WalRecord rec;
      rec.kind = WalRecordKind::kQuarantine;
      rec.event_index = static_cast<uint64_t>(i);
      rec.id = trace.events[i].id;
      rec.cause = std::move(cause);
      tally.Add(rec);
      quarantined_metric->Add(1);
      report.quarantined_events.push_back(
          QuarantineRecord{rec.event_index, rec.id, rec.cause});
      return store.Record(&rec);
    };
    const auto stream_fault = [&](size_t i, uint8_t fault_kind) -> Status {
      WalRecord rec;
      rec.kind = WalRecordKind::kStreamFault;
      rec.event_index = static_cast<uint64_t>(i);
      rec.fault_kind = fault_kind;
      tally.Add(rec);
      return store.Record(&rec);
    };

    // The window's event order, after quarantine and after the armed
    // fault plan's stream mutations (site "replay.event", hit-indexed by
    // the absolute trace position so a plan means the same thing across
    // epoch cuts and checkpoint resumes). Drops vanish here (counted),
    // duplicates appear twice, a reorder swaps the event with its next
    // surviving successor inside the window.
    std::vector<uint64_t> order;
    order.reserve(end - begin);
    std::optional<uint64_t> reorder_deferred;
    const auto emit = [&](uint64_t idx) {
      order.push_back(idx);
      if (reorder_deferred) {
        order.push_back(*reorder_deferred);
        reorder_deferred.reset();
      }
    };
    for (size_t i = begin; i < end; ++i) {
      if (poison[i] != nullptr) {
        TBF_RETURN_NOT_OK(quarantine(i, poison[i]));
        continue;
      }
      const std::optional<fault::FaultAction> action =
          TBF_FAULT_ONHIT_AT("replay.event", static_cast<uint64_t>(i));
      if (!action) {
        emit(static_cast<uint64_t>(i));
        continue;
      }
      switch (action->kind) {
        case fault::FaultKind::kDrop:
          TBF_RETURN_NOT_OK(stream_fault(i, 0));
          break;
        case fault::FaultKind::kDuplicate:
          TBF_RETURN_NOT_OK(stream_fault(i, 1));
          emit(static_cast<uint64_t>(i));
          emit(static_cast<uint64_t>(i));
          break;
        case fault::FaultKind::kReorder:
          if (!reorder_deferred) {
            TBF_RETURN_NOT_OK(stream_fault(i, 2));
            reorder_deferred = static_cast<uint64_t>(i);
          } else {
            emit(static_cast<uint64_t>(i));
          }
          break;
        case fault::FaultKind::kStall:
          TBF_RETURN_NOT_OK(stream_fault(i, 3));
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(action->stall_ms));
          emit(static_cast<uint64_t>(i));
          break;
        case fault::FaultKind::kFail:
        case fault::FaultKind::kExhaustBudget:
          // A forced failure on the stream is handled like a poison
          // event: quarantined with its cause, replay continues.
          TBF_RETURN_NOT_OK(
              quarantine(i, "injected fault: " + action->status.message()));
          break;
        default:
          emit(static_cast<uint64_t>(i));
          break;
      }
    }
    if (reorder_deferred) order.push_back(*reorder_deferred);

    // Client-side reporting for this window, batched over the pool. The
    // fork offset makes report i of the trace independent of where the
    // epoch cut falls.
    std::vector<PreparedEvent> prepared;
    prepared.reserve(order.size());
    std::vector<Point> locations;
    for (const uint64_t gi : order) {
      const TimedEvent& event = trace.events[static_cast<size_t>(gi)];
      PreparedEvent item;
      item.event = &event;
      item.event_index = gi;
      switch (event.kind) {
        case EventKind::kWorkerArrival:
          ++stats.worker_arrivals;
          item.report_index = static_cast<int>(locations.size());
          locations.push_back(event.location);
          break;
        case EventKind::kTaskArrival:
          ++stats.task_arrivals;
          item.report_index = static_cast<int>(locations.size());
          // One row per task dispatch (a duplicated task gets two, a
          // dropped or quarantined one none), filled in by dispatch_one.
          item.task_slot = next_task_slot++;
          report.task_outcomes.emplace_back();
          locations.push_back(event.location);
          break;
        case EventKind::kWorkerDeparture:
          ++stats.departures;
          break;
      }
      prepared.push_back(item);
    }

    std::vector<LeafCode> reports;
    {
      obs::ScopedTimer obf_timer(&stats.obfuscate_seconds);
      reports = framework.ObfuscateCodes(locations, obfuscation_stream, &pool,
                                         nullptr, arrivals_obfuscated,
                                         options.sampler.value_or(
                                             SamplerKind::kWalk));
    }
    arrivals_obfuscated += locations.size();
    if (!locations.empty()) {
      // The batched pass's wall time, attributed evenly to its reports
      // (one O(1) RecordN, not one Record per report).
      const double per_report =
          stats.obfuscate_seconds / static_cast<double>(locations.size());
      obfuscate_hist->RecordN(
          per_report <= 0.0 ? 0 : static_cast<uint64_t>(per_report * 1e9),
          locations.size());
    }

    // Epoch budgets roll over at the window boundary, even across empty
    // windows (BeginEpoch jumps forward).
    TBF_RETURN_NOT_OK(server->BeginEpoch(epoch));

    // Dispatch. One lane per shard in parallel mode: lanes preserve
    // per-shard event order, the engine's locks linearize the rest.
    const auto dispatch_one = [&](const PreparedEvent& item,
                                  ReplayCounts* lane) -> Status {
      const TimedEvent& event = *item.event;
      const size_t idx = static_cast<size_t>(item.report_index);
      // Journal-after-apply: the record carries the engine's outcome and
      // the ledger delta this one dispatch produced. It is the event's
      // only outcome: the tally and the task row are read off it, and a
      // re-run from a checkpoint must reproduce it exactly.
      WalRecord rec;
      rec.event_index = item.event_index;
      rec.id = event.id;
      const EpochBudgetLedger* event_ledger =
          store.journals() ? server->ledger() : nullptr;
      const EpochBudgetLedger::Totals charged_before =
          event_ledger != nullptr ? event_ledger->totals()
                                  : EpochBudgetLedger::Totals{};
      Status status;  // the engine's answer, or the forced refusal
      if (event.kind != EventKind::kWorkerDeparture) {
        rec.code = reports[idx];
        rec.has_epsilon = declared_epsilon.has_value();
        rec.declared_epsilon = declared_epsilon.value_or(0.0);
        // Forced budget denial ("replay.budget", hit-indexed by absolute
        // trace position): refuse the report before it reaches the
        // engine, exactly as a cap refusal would.
        status = TBF_FAULT_INJECT_AT("replay.budget", item.event_index);
        rec.outcome.forced = !status.ok();
      }
      switch (event.kind) {
        case EventKind::kWorkerArrival:
          rec.kind = WalRecordKind::kWorkerArrival;
          if (status.ok()) {
            status = server->RegisterWorker(event.id, reports[idx],
                                            declared_epsilon);
          }
          break;
        case EventKind::kTaskArrival: {
          rec.kind = WalRecordKind::kTaskArrival;
          rec.task_slot = item.task_slot;
          if (!status.ok()) break;
          Result<DispatchResult> dispatched =
              server->SubmitTask(event.id, reports[idx], declared_epsilon);
          if (!dispatched.ok()) {
            status = dispatched.status();
            break;
          }
          rec.outcome.has_worker = dispatched->worker.has_value();
          rec.outcome.worker = std::move(dispatched->worker).value_or("");
          rec.outcome.tree_distance = dispatched->reported_tree_distance;
          break;
        }
        case EventKind::kWorkerDeparture:
          rec.kind = WalRecordKind::kWorkerDeparture;
          rec.missed = !server->UnregisterWorker(event.id).ok();
          break;
      }
      rec.outcome.status_code = static_cast<int32_t>(status.code());
      rec.outcome.message = status.message();
      if (event_ledger != nullptr) {
        const EpochBudgetLedger::Totals charged = event_ledger->totals();
        rec.outcome.epsilon_charged =
            charged.epsilon_spent - charged_before.epsilon_spent;
        if (charged.denied_epoch > charged_before.denied_epoch) {
          rec.outcome.budget_denied = 1;
        } else if (charged.denied_lifetime > charged_before.denied_lifetime) {
          rec.outcome.budget_denied = 2;
        }
      }
      lane->Add(rec);
      TBF_RETURN_NOT_OK(store.Record(&rec));
      if (rec.kind == WalRecordKind::kTaskArrival) {
        TaskOutcome& row =
            report.task_outcomes[static_cast<size_t>(item.task_slot)];
        row.task_id = std::move(rec.id);
        row.status = Status(static_cast<StatusCode>(rec.outcome.status_code),
                            std::move(rec.outcome.message));
        if (rec.outcome.has_worker) row.worker = std::move(rec.outcome.worker);
        row.reported_tree_distance = rec.outcome.tree_distance;
      }
      return Status::OK();
    };

    // Ledger totals bracket the dispatch: every charge (and denial)
    // happens inside it, so the delta is this epoch's privacy spend.
    const EpochBudgetLedger* ledger = server->ledger();
    const EpochBudgetLedger::Totals totals_before =
        ledger ? ledger->totals() : EpochBudgetLedger::Totals{};

    obs::ScopedTimer dispatch_timer(&stats.dispatch_seconds);
    if (!options.parallel_dispatch || options.num_shards == 1) {
      for (const PreparedEvent& item : prepared) {
        TBF_RETURN_NOT_OK(dispatch_one(item, &tally));
      }
    } else {
      const size_t num_lanes = static_cast<size_t>(options.num_shards);
      std::vector<ReplayCounts> lanes(num_lanes);
      std::vector<std::vector<const PreparedEvent*>> queues(num_lanes);
      const ShardRouter& router = server->router();
      const LeafCodec& codec = *framework.codec();
      // All of one worker's events in the epoch must share a lane, or a
      // departure (or re-registration) could overtake the arrival it
      // follows in event time and leave the pool in a state sequential
      // replay can never reach. First event of the worker picks the lane
      // (its home shard for arrivals, an id-hash for bare departures);
      // later same-worker events stick to it. Tasks are single-shot, so
      // their home shard is always safe.
      std::unordered_map<std::string, size_t> worker_lane;
      const auto home_shard = [&](int report_index) {
        const size_t idx = static_cast<size_t>(report_index);
        return static_cast<size_t>(router.ShardOf(reports[idx], codec));
      };
      for (const PreparedEvent& item : prepared) {
        size_t lane;
        if (item.event->kind == EventKind::kTaskArrival) {
          lane = home_shard(item.report_index);
        } else {
          auto it = worker_lane.find(item.event->id);
          if (it != worker_lane.end()) {
            lane = it->second;
          } else {
            lane = item.event->kind == EventKind::kWorkerArrival
                       ? home_shard(item.report_index)
                       : std::hash<std::string>{}(item.event->id) % num_lanes;
            worker_lane.emplace(item.event->id, lane);
          }
        }
        queues[lane].push_back(&item);
      }
      std::vector<Status> lane_status(num_lanes);
      pool.ParallelFor(num_lanes, [&](size_t lane_begin, size_t lane_end) {
        for (size_t lane = lane_begin; lane < lane_end; ++lane) {
          for (const PreparedEvent* item : queues[lane]) {
            // Journaling is sequential-only (validated above), so this
            // can only fail once a future mode journals in parallel.
            Status dispatched = dispatch_one(*item, &lanes[lane]);
            if (!dispatched.ok()) {
              lane_status[lane] = std::move(dispatched);
              break;
            }
          }
        }
      });
      for (const Status& status : lane_status) TBF_RETURN_NOT_OK(status);
      for (const ReplayCounts& lane : lanes) tally += lane;
    }
    dispatch_timer.Stop();  // stats.dispatch_seconds += elapsed
    if (ledger != nullptr) {
      const EpochBudgetLedger::Totals& totals = ledger->totals();
      stats.epsilon_spent = totals.epsilon_spent - totals_before.epsilon_spent;
      stats.denied_epoch_budget =
          totals.denied_epoch - totals_before.denied_epoch;
      stats.denied_lifetime_budget =
          totals.denied_lifetime - totals_before.denied_lifetime;
    }
    stats.assigned = tally.assigned;
    stats.unassigned = tally.unassigned;
    stats.denied = tally.denied;
    stats.shed = tally.shed;
    stats.quarantined = tally.quarantined;
    report += tally;
    report.obfuscate_seconds += stats.obfuscate_seconds;
    report.dispatch_seconds += stats.dispatch_seconds;
    report.per_epoch.push_back(stats);
    begin = end;

    TBF_RETURN_NOT_OK(
        store.EpochDone(end, arrivals_obfuscated, next_task_slot, *server));
    // Kill site, hit-indexed by the absolute epoch ordinal (stable across
    // resumes). It fires AFTER the checkpoint is durable, so a chaos plan
    // that aborts here models a crash whose latest checkpoint survived.
    TBF_RETURN_NOT_OK(TBF_FAULT_INJECT_AT(
        "replay.epoch", static_cast<uint64_t>(report.per_epoch.size() - 1)));
  }

  // Final journal barrier: everything this run processed is durable
  // before the report is assembled.
  TBF_RETURN_NOT_OK(store.Close());

  report.epochs = report.per_epoch.size();
  report.wall_seconds = total_timer.ElapsedSeconds();
  report.events_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.events) / report.wall_seconds
          : 0.0;
  report.available_workers_end = server->available_workers();

  // Flight-recorder summary: one merged snapshot of the run registry,
  // with the headline series pulled out into typed fields.
  report.metrics = run_metrics.Snapshot();
  if (const obs::HistogramSample* h =
          report.metrics.FindHistogram("tbf_serve_dispatch_latency_ns")) {
    report.dispatch_p50_ns = h->Quantile(0.50);
    report.dispatch_p95_ns = h->Quantile(0.95);
    report.dispatch_p99_ns = h->Quantile(0.99);
  }
  if (const EpochBudgetLedger* ledger = server->ledger()) {
    const EpochBudgetLedger::Totals& totals = ledger->totals();
    report.epsilon_spent = totals.epsilon_spent;
    report.denied_epoch_budget = totals.denied_epoch;
    report.denied_lifetime_budget = totals.denied_lifetime;
  }
  if (options.export_final_state) report.final_state = server->ExportState();
  TBF_RETURN_NOT_OK(report.CheckAccountingIdentity());
  return report;
}

}  // namespace tbf
