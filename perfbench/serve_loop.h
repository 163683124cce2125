// Layered serving loop: the sequential path of tbf::RunEventReplay,
// re-driven from the benchmark one layer call at a time so that every
// call can be timed on its own.
//
// Per event window the loop obfuscates the window's arrivals client-side
// (TbfFramework::ObfuscateCodes, the replay's fork offsets), rolls the
// engine's budget epoch, dispatches every event into a ShardedTbfServer
// in event order, and — when durable — journals each event with its
// outcome (WalWriter) and writes a checkpoint every few windows (journal
// barrier, ReplayCheckpoint file, segment rotation, compaction). Driven
// with the replay's options it produces the replay's task outcomes draw
// for draw; the benchmark checks that on every run.
//
// With a SpanLog attached, each layer call records a span (layer, parent
// span, request id, start, end), kept in memory until the run ends; a
// layer's self time is its spans' time minus their children's.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/tbf.h"
#include "obs/metrics.h"
#include "serve/replay.h"
#include "workload/instance.h"

namespace perfbench {

/// Layers the loop records spans for. kRun, kWindow and kEvent are the
/// loop itself; their self time is the loop's own bookkeeping.
enum class Layer : uint8_t {
  kRun,
  kWindow,
  kObfuscate,         ///< client-side batched obfuscation of one window
  kEpochRoll,         ///< ShardedTbfServer::BeginEpoch
  kEvent,             ///< one dispatched event (parent of engine/journal)
  kEngine,            ///< RegisterWorker / SubmitTask / UnregisterWorker
  kJournal,           ///< WalWriter::Append (group-commit fsync included)
  kCheckpoint,        ///< one durable checkpoint (parent of the next three)
  kCheckpointExport,  ///< engine state export + checkpoint assembly
  kCheckpointWrite,   ///< serialize + atomic file write
  kJournalRotate,     ///< journal barrier, rotation, compaction, retention
};
inline constexpr size_t kLayerCount = 11;
const char* LayerName(Layer layer);

/// \brief In-memory span log of one loop run.
class SpanLog {
 public:
  struct Span {
    Layer layer;
    int32_t parent;    ///< index of the causing span, -1 for the root
    uint64_t request;  ///< event index (events), window ordinal (windows)
    int64_t start_ns;
    int64_t end_ns;
  };
  struct LayerTotals {
    uint64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;  ///< total minus the time of child spans
  };

  int32_t Begin(Layer layer, int32_t parent, uint64_t request);
  void End(int32_t span);

  std::array<LayerTotals, kLayerCount> Aggregate() const;

  /// Writes one CSV row per span (index,layer,parent,request,start,end).
  tbf::Status WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

struct LoopResult {
  std::vector<tbf::TaskOutcome> task_outcomes;  ///< task arrival order
  /// Mean Euclidean distance between each assigned task and its worker's
  /// true location.
  double mean_true_distance = 0.0;
  size_t registered = 0;
  size_t assigned = 0;
  size_t unassigned = 0;
  size_t denied = 0;
  size_t missed_departures = 0;
  size_t dispatched_events = 0;
  size_t reports = 0;  ///< obfuscated arrivals
  uint64_t windows = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  double epsilon_spent = 0.0;
  uint64_t charges = 0;
  tbf::obs::MetricsSnapshot metrics;  ///< the run's private registry
};

/// \brief Serves `trace` through the layers (see the file comment) with
/// the replay's `options`. Supports what the sequential durable path
/// uses — shards, epoch length, epoch budget, seeds, durable directory,
/// checkpoint cadence and retention, journal policy — and refuses the
/// rest. `spans` (may be null) receives one span per layer call.
tbf::Result<LoopResult> RunLayeredLoop(const tbf::TbfFramework& framework,
                                       const tbf::EventTrace& trace,
                                       const tbf::ReplayOptions& options,
                                       SpanLog* spans);

}  // namespace perfbench
