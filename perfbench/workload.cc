#include "workload.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "geo/metric.h"
#include "workload/chengdu.h"

namespace perfbench {

using tbf::EventKind;
using tbf::EventTrace;
using tbf::Point;
using tbf::Rng;
using tbf::TimedEvent;

namespace {

// Side of the normalized frame (1 unit = 50 m of the 10 km city).
constexpr double kSide = 200.0;

// The paper's daily slice, 14:00-14:30.
constexpr double kSliceSeconds = 1800.0;

// Workers come online over this share of a slice (the default of
// tbf::SyntheticEventConfig::worker_arrival_fraction).
constexpr double kWorkerArrivalFraction = 0.5;

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  // bench/serve_throughput.cc BM_ServeReplayDurable: one shard (the
  // journal is an ordered log), 30 s epochs, a checkpoint every four
  // epochs, the group-commit journal.
  WorkloadSpec durable;
  durable.name = "durable";
  durable.num_shards = 1;
  durable.epoch_seconds = 30.0;
  durable.durable = true;
  durable.checkpoint_every_epochs = 4;
  if (name == durable.name) return durable;

  // examples/event_replay.cpp defaults (--shards=4 --epoch=60) with
  // sequential dispatch (--parallel=0), the engine's deterministic mode;
  // served in memory, so it bypasses the journal and checkpoints.
  WorkloadSpec sharded;
  sharded.name = "sharded";
  sharded.num_shards = 4;
  sharded.epoch_seconds = 60.0;
  if (name == sharded.name) return sharded;

  return std::nullopt;
}

tbf::Result<EventTrace> BuildTrace(uint64_t seed) {
  EventTrace trace;
  trace.region = tbf::BBox::Square(kSide);
  for (int d = 0; d < kDays; ++d) {
    // Consecutive days of the simulated month, starting at a seed-chosen
    // day; the timing draws come from the benchmark seed, so seeds sharing
    // a start day still produce different traces.
    tbf::ChengduConfig city;
    city.day = static_cast<int>((seed + static_cast<uint64_t>(d)) % 30);
    TBF_ASSIGN_OR_RETURN(tbf::OnlineInstance instance,
                         tbf::GenerateChengdu(city));
    tbf::NormalizeToSquare(&instance, kSide);
    Rng rng = Rng(seed).Split(static_cast<uint64_t>(d));

    const double open = d * kSliceSeconds;
    const double close = open + kSliceSeconds;
    const std::string day = std::to_string(d);
    for (size_t w = 0; w < instance.workers.size(); ++w) {
      const std::string id = "w" + std::to_string(w);
      const double arrival =
          open + rng.Uniform(0.0, kSliceSeconds * kWorkerArrivalFraction);
      trace.events.push_back(TimedEvent{arrival, EventKind::kWorkerArrival,
                                        id, instance.workers[w]});
      if (rng.Bernoulli(kDepartureProbability)) {
        trace.events.push_back(TimedEvent{rng.Uniform(arrival, close),
                                          EventKind::kWorkerDeparture, id,
                                          Point{}});
      }
    }
    for (size_t t = 0; t < instance.tasks.size(); ++t) {
      trace.events.push_back(TimedEvent{
          rng.Uniform(open, close), EventKind::kTaskArrival,
          "t" + day + "-" + std::to_string(t), instance.tasks[t]});
    }
  }
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TimedEvent& a, const TimedEvent& b) {
                     return a.time < b.time;
                   });
  return trace;
}

namespace {

// Uniform bucket grid over the frame holding the available workers, for
// exact Euclidean nearest-neighbour search with deletions.
class WorkerGrid {
 public:
  explicit WorkerGrid(int cells) : cells_(cells), buckets_(cells * cells) {}

  void Insert(int worker, const Point& p) {
    const int cell = CellOf(p);
    slot_[worker] = {cell, buckets_[cell].size()};
    buckets_[cell].push_back({worker, p});
  }

  void Remove(int worker) {
    auto it = slot_.find(worker);
    if (it == slot_.end()) return;
    auto [cell, index] = it->second;
    std::vector<Entry>& bucket = buckets_[cell];
    bucket[index] = bucket.back();
    slot_[bucket[index].worker].second = index;
    bucket.pop_back();
    slot_.erase(it);
  }

  // Nearest available worker to `p`: ring-by-ring search that stops once
  // the next ring cannot hold anything closer than the best so far.
  std::optional<std::pair<int, double>> Nearest(const Point& p) const {
    const double cell_size = kSide / cells_;
    const int cx = Coord(p.x);
    const int cy = Coord(p.y);
    std::optional<std::pair<int, double>> best;
    for (int r = 0; r < cells_; ++r) {
      if (best && (r - 1) * cell_size > best->second) break;
      for (int y = cy - r; y <= cy + r; ++y) {
        if (y < 0 || y >= cells_) continue;
        const bool edge_row = y == cy - r || y == cy + r;
        for (int x = cx - r; x <= cx + r; x += edge_row ? 1 : 2 * r) {
          if (x >= 0 && x < cells_) {
            for (const Entry& e : buckets_[y * cells_ + x]) {
              const double d = tbf::EuclideanDistance(p, e.location);
              if (!best || d < best->second ||
                  (d == best->second && e.worker < best->first)) {
                best = std::make_pair(e.worker, d);
              }
            }
          }
        }
      }
    }
    return best;
  }

 private:
  struct Entry {
    int worker;
    Point location;
  };

  int Coord(double v) const {
    return std::clamp(static_cast<int>(v / kSide * cells_), 0, cells_ - 1);
  }
  int CellOf(const Point& p) const { return Coord(p.y) * cells_ + Coord(p.x); }

  int cells_;
  std::vector<std::vector<Entry>> buckets_;
  std::unordered_map<int, std::pair<int, size_t>> slot_;  // worker -> slot
};

}  // namespace

double GreedyMeanDistance(const EventTrace& trace) {
  WorkerGrid grid(64);
  std::unordered_map<std::string, int> worker_ids;
  double sum = 0.0;
  size_t assigned = 0;
  for (const TimedEvent& event : trace.events) {
    switch (event.kind) {
      case EventKind::kWorkerArrival: {
        const int id = worker_ids.try_emplace(event.id, worker_ids.size())
                           .first->second;
        grid.Remove(id);  // a new session relocates the worker
        grid.Insert(id, event.location);
        break;
      }
      case EventKind::kWorkerDeparture: {
        auto it = worker_ids.find(event.id);
        if (it != worker_ids.end()) grid.Remove(it->second);
        break;
      }
      case EventKind::kTaskArrival: {
        if (auto nearest = grid.Nearest(event.location)) {
          grid.Remove(nearest->first);
          sum += nearest->second;
          ++assigned;
        }
        break;
      }
    }
  }
  return assigned > 0 ? sum / static_cast<double>(assigned) : 0.0;
}

}  // namespace perfbench
