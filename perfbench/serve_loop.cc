#include "serve_loop.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "geo/metric.h"
#include "serve/checkpoint.h"
#include "serve/recovery.h"
#include "serve/sharded_server.h"
#include "serve/wal.h"

namespace perfbench {

using tbf::EventKind;
using tbf::Status;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span guard; a no-op without a log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer, int32_t parent, uint64_t request)
      : log_(log), index_(log ? log->Begin(layer, parent, request) : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }
  void End() {
    if (log_ != nullptr && index_ >= 0) log_->End(index_);
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  int32_t index_;
};

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "run",    "window",     "obfuscate",         "epoch_roll",
      "event",  "engine",     "journal",           "checkpoint",
      "checkpoint_export", "checkpoint_write", "journal_rotate"};
  return kNames[static_cast<size_t>(layer)];
}

int32_t SpanLog::Begin(Layer layer, int32_t parent, uint64_t request) {
  spans_.push_back(Span{layer, parent, request, NowNs(), 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

std::array<SpanLog::LayerTotals, kLayerCount> SpanLog::Aggregate() const {
  std::array<LayerTotals, kLayerCount> totals{};
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = totals[static_cast<size_t>(spans_[i].layer)];
    const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return totals;
}

Status SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  out << "index,layer,parent,request,start_ns,end_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << LayerName(s.layer) << ',' << s.parent << ','
        << s.request << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

tbf::Result<LoopResult> RunLayeredLoop(const tbf::TbfFramework& framework,
                                       const tbf::EventTrace& trace,
                                       const tbf::ReplayOptions& options,
                                       SpanLog* spans) {
  if (framework.codec() == nullptr) {
    return Status::InvalidArgument("the layered loop needs packed leaf codes");
  }
  if (options.parallel_dispatch || options.lifetime_budget ||
      options.sampler || !options.republishes.empty() || options.recover ||
      !options.checkpoint_path.empty() ||
      options.tie_break != tbf::HstTieBreak::kCanonical ||
      options.poison_policy != tbf::PoisonPolicy::kFail ||
      options.max_backlog_per_shard != 0 ||
      options.degrade_fanout_inflight_threshold != 0) {
    return Status::InvalidArgument(
        "the layered loop serves only the sequential durable path");
  }
  const bool durable = !options.durable_dir.empty();
  const size_t n = trace.events.size();

  // Private registry, declared before the engine that holds handles to it.
  tbf::obs::MetricRegistry run_metrics;
  tbf::ShardedServerOptions server_options;
  server_options.num_shards = options.num_shards;
  server_options.epoch_budget = options.epoch_budget;
  server_options.seed = options.server_seed;
  server_options.metrics = &run_metrics;
  TBF_ASSIGN_OR_RETURN(std::unique_ptr<tbf::ShardedTbfServer> server,
                       tbf::ShardedTbfServer::Create(framework.tree_ptr(),
                                                     server_options));
  const std::optional<double> declared_epsilon =
      options.epoch_budget ? std::optional<double>(framework.epsilon())
                          : std::nullopt;

  const uint32_t fingerprint = durable ? tbf::FingerprintEventTrace(trace) : 0;
  std::unique_ptr<tbf::WalWriter> wal;
  if (durable) {
    tbf::WalIdentity identity;
    identity.trace_fingerprint = fingerprint;
    identity.num_shards = options.num_shards;
    identity.epoch_seconds = options.epoch_seconds;
    identity.server_seed = options.server_seed;
    identity.obfuscation_seed = options.obfuscation_seed;
    TBF_ASSIGN_OR_RETURN(
        wal, tbf::WalWriter::Open(options.durable_dir, identity,
                                  options.wal_fsync,
                                  &run_metrics));
  }

  LoopResult result;
  size_t task_count = 0;
  for (const tbf::TimedEvent& event : trace.events) {
    if (event.kind == EventKind::kTaskArrival) ++task_count;
  }
  result.task_outcomes.resize(task_count);
  // Accepted registrations and departures, for the utility pass below.
  std::vector<uint8_t> served(n, 0);
  std::vector<tbf::EpochStats> per_epoch;
  std::vector<tbf::RetainedCheckpoint> retained;

  tbf::ThreadPool pool(options.threads);
  const tbf::Rng obfuscation_stream(options.obfuscation_seed);
  uint64_t arrivals_obfuscated = 0;
  int64_t next_task_slot = 0;
  const double t0 = n > 0 ? trace.events.front().time : 0.0;

  ScopedSpan run_span(spans, Layer::kRun, -1, 0);
  size_t begin = 0;
  while (begin < n) {
    const auto epoch_of = [&](size_t i) {
      return static_cast<int64_t>(
          std::floor((trace.events[i].time - t0) / options.epoch_seconds));
    };
    const int64_t epoch = epoch_of(begin);
    size_t end = begin;
    while (end < n && epoch_of(end) == epoch) ++end;

    ScopedSpan window_span(spans, Layer::kWindow, run_span.index(),
                           result.windows);
    if (wal != nullptr) {
      tbf::WalRecord rec;
      rec.kind = tbf::WalRecordKind::kEpochBegin;
      rec.epoch = epoch;
      rec.begin_index = begin;
      rec.arrivals_obfuscated = arrivals_obfuscated;
      rec.next_task_slot = next_task_slot;
      ScopedSpan span(spans, Layer::kJournal, window_span.index(), begin);
      TBF_RETURN_NOT_OK(wal->Append(&rec));
    }

    tbf::EpochStats stats;
    stats.epoch = epoch;
    std::vector<tbf::Point> locations;
    std::vector<int> report_of(end - begin, -1);
    for (size_t i = begin; i < end; ++i) {
      const tbf::TimedEvent& event = trace.events[i];
      if (event.kind == EventKind::kWorkerDeparture) continue;
      report_of[i - begin] = static_cast<int>(locations.size());
      locations.push_back(event.location);
    }
    std::vector<tbf::LeafCode> codes;
    {
      ScopedSpan span(spans, Layer::kObfuscate, window_span.index(),
                      result.windows);
      codes = framework.ObfuscateCodes(locations, obfuscation_stream, &pool,
                                       nullptr, arrivals_obfuscated);
    }
    arrivals_obfuscated += locations.size();
    result.reports += locations.size();
    {
      ScopedSpan span(spans, Layer::kEpochRoll, window_span.index(), epoch);
      TBF_RETURN_NOT_OK(server->BeginEpoch(epoch));
    }
    const tbf::EpochBudgetLedger* ledger = server->ledger();
    const double spent_before = ledger ? ledger->totals().epsilon_spent : 0.0;

    for (size_t i = begin; i < end; ++i) {
      const tbf::TimedEvent& event = trace.events[i];
      ScopedSpan event_span(spans, Layer::kEvent, window_span.index(), i);
      tbf::WalRecord rec;
      rec.event_index = i;
      rec.id = event.id;
      const tbf::EpochBudgetLedger::Totals before =
          (wal != nullptr && ledger != nullptr)
              ? ledger->totals()
              : tbf::EpochBudgetLedger::Totals{};
      const int report = report_of[i - begin];
      if (wal != nullptr && report >= 0) {
        rec.packed = true;
        rec.code = codes[static_cast<size_t>(report)];
        rec.has_epsilon = declared_epsilon.has_value();
        rec.declared_epsilon = declared_epsilon.value_or(0.0);
      }
      switch (event.kind) {
        case EventKind::kWorkerArrival: {
          ++stats.worker_arrivals;
          Status status;
          {
            ScopedSpan span(spans, Layer::kEngine, event_span.index(), i);
            status = server->RegisterWorker(
                event.id, codes[static_cast<size_t>(report)],
                declared_epsilon);
          }
          if (status.ok()) {
            served[i] = 1;
            ++result.registered;
          } else {
            ++stats.denied;
          }
          rec.kind = tbf::WalRecordKind::kWorkerArrival;
          rec.outcome.status_code = static_cast<int32_t>(status.code());
          if (!status.ok()) rec.outcome.message = status.message();
          break;
        }
        case EventKind::kTaskArrival: {
          ++stats.task_arrivals;
          const int64_t slot = next_task_slot++;
          tbf::TaskOutcome& outcome =
              result.task_outcomes[static_cast<size_t>(slot)];
          outcome.task_id = event.id;
          tbf::Result<tbf::DispatchResult> dispatched = [&] {
            ScopedSpan span(spans, Layer::kEngine, event_span.index(), i);
            return server->SubmitTask(event.id,
                                      codes[static_cast<size_t>(report)],
                                      declared_epsilon);
          }();
          rec.kind = tbf::WalRecordKind::kTaskArrival;
          rec.task_slot = slot;
          if (dispatched.ok()) {
            outcome.worker = dispatched->worker;
            outcome.reported_tree_distance = dispatched->reported_tree_distance;
            if (outcome.worker) {
              ++stats.assigned;
              rec.outcome.has_worker = true;
              rec.outcome.worker = *outcome.worker;
            } else {
              ++stats.unassigned;
            }
            rec.outcome.tree_distance = outcome.reported_tree_distance;
          } else {
            outcome.status = dispatched.status();
            ++stats.denied;
            rec.outcome.status_code =
                static_cast<int32_t>(outcome.status.code());
            rec.outcome.message = outcome.status.message();
          }
          break;
        }
        case EventKind::kWorkerDeparture: {
          ++stats.departures;
          Status status;
          {
            ScopedSpan span(spans, Layer::kEngine, event_span.index(), i);
            status = server->UnregisterWorker(event.id);
          }
          if (status.ok()) {
            served[i] = 1;
          } else {
            ++result.missed_departures;
          }
          rec.kind = tbf::WalRecordKind::kWorkerDeparture;
          rec.missed = !status.ok();
          break;
        }
      }
      if (wal != nullptr) {
        if (ledger != nullptr) {
          const tbf::EpochBudgetLedger::Totals& after = ledger->totals();
          rec.outcome.epsilon_charged =
              after.epsilon_spent - before.epsilon_spent;
          if (after.denied_epoch > before.denied_epoch) {
            rec.outcome.budget_denied = 1;
          } else if (after.denied_lifetime > before.denied_lifetime) {
            rec.outcome.budget_denied = 2;
          }
        }
        ScopedSpan span(spans, Layer::kJournal, event_span.index(), i);
        TBF_RETURN_NOT_OK(wal->Append(&rec));
      }
    }
    if (ledger != nullptr) {
      stats.epsilon_spent = ledger->totals().epsilon_spent - spent_before;
    }
    result.assigned += stats.assigned;
    result.unassigned += stats.unassigned;
    result.denied += stats.denied;
    result.dispatched_events += end - begin;
    per_epoch.push_back(stats);
    ++result.windows;

    // Durable checkpoint, with the replay's cadence and retention.
    if (wal != nullptr &&
        result.windows % static_cast<uint64_t>(options.checkpoint_every_epochs) ==
            0) {
      ScopedSpan ckpt_span(spans, Layer::kCheckpoint, window_span.index(),
                           result.windows);
      tbf::ReplayCheckpoint ckpt;
      {
        ScopedSpan span(spans, Layer::kJournalRotate, ckpt_span.index(),
                        result.windows);
        TBF_RETURN_NOT_OK(wal->Sync());
      }
      {
        ScopedSpan span(spans, Layer::kCheckpointExport, ckpt_span.index(),
                        result.windows);
        ckpt.trace_fingerprint = fingerprint;
        ckpt.num_shards = options.num_shards;
        ckpt.epoch_seconds = options.epoch_seconds;
        ckpt.server_seed = options.server_seed;
        ckpt.obfuscation_seed = options.obfuscation_seed;
        ckpt.next_event = end;
        ckpt.arrivals_obfuscated = arrivals_obfuscated;
        ckpt.next_task_slot = next_task_slot;
        ckpt.report.registered = result.registered;
        ckpt.report.assigned = result.assigned;
        ckpt.report.unassigned = result.unassigned;
        ckpt.report.denied = result.denied;
        ckpt.report.missed_departures = result.missed_departures;
        ckpt.report.processed_events = result.dispatched_events;
        ckpt.report.checkpoints_written = result.checkpoints;
        ckpt.per_epoch = per_epoch;
        ckpt.task_outcomes.assign(
            result.task_outcomes.begin(),
            result.task_outcomes.begin() + next_task_slot);
        ckpt.server = server->ExportState();
        ckpt.metrics = run_metrics.Snapshot();
        ckpt.wal_next_lsn = wal->next_lsn();
      }
      const std::string path =
          options.durable_dir + "/" + tbf::ReplayCheckpointFileName(result.windows);
      {
        ScopedSpan span(spans, Layer::kCheckpointWrite, ckpt_span.index(),
                        result.windows);
        TBF_RETURN_NOT_OK(tbf::WriteReplayCheckpointFile(ckpt, path));
      }
      ++result.checkpoints;
      std::error_code ec;
      result.checkpoint_bytes += std::filesystem::file_size(path, ec);
      {
        ScopedSpan span(spans, Layer::kJournalRotate, ckpt_span.index(),
                        result.windows);
        retained.push_back(
            tbf::RetainedCheckpoint{result.windows, path, ckpt.wal_next_lsn});
        while (retained.size() > static_cast<size_t>(options.keep_checkpoints)) {
          std::remove(retained.front().path.c_str());
          retained.erase(retained.begin());
        }
        TBF_RETURN_NOT_OK(wal->Rotate());
        TBF_RETURN_NOT_OK(wal->CompactBelow(retained.front().wal_next_lsn));
      }
    }
    begin = end;
  }
  if (wal != nullptr) {
    ScopedSpan span(spans, Layer::kJournalRotate, run_span.index(), 0);
    TBF_RETURN_NOT_OK(wal->Close());
  }
  run_span.End();

  // Utility and pool consistency, outside every span: each assignment
  // must consume an available worker, and its true distance uses the
  // location of that worker's latest accepted registration.
  std::unordered_map<std::string, tbf::Point> available;
  double distance_sum = 0.0;
  size_t slot = 0;
  for (size_t i = 0; i < n; ++i) {
    const tbf::TimedEvent& event = trace.events[i];
    if (event.kind == EventKind::kWorkerArrival) {
      if (served[i]) available[event.id] = event.location;
    } else if (event.kind == EventKind::kWorkerDeparture) {
      if (served[i] && available.erase(event.id) == 0) {
        return Status::Internal("departure of unavailable worker " + event.id);
      }
    } else {
      const tbf::TaskOutcome& outcome = result.task_outcomes[slot++];
      if (!outcome.worker) continue;
      auto it = available.find(*outcome.worker);
      if (it == available.end()) {
        return Status::Internal("task " + event.id +
                                " was assigned unavailable worker " +
                                *outcome.worker);
      }
      distance_sum += tbf::EuclideanDistance(event.location, it->second);
      available.erase(it);
    }
  }
  result.mean_true_distance =
      result.assigned > 0 ? distance_sum / static_cast<double>(result.assigned)
                          : 0.0;
  if (const tbf::EpochBudgetLedger* ledger = server->ledger()) {
    result.epsilon_spent = ledger->totals().epsilon_spent;
    result.charges = ledger->totals().charges;
  }
  result.metrics = run_metrics.Snapshot();
  return result;
}

}  // namespace perfbench
