// Workloads of the end-to-end serving benchmark.
//
// Every workload serves the same traffic: kDays consecutive days of the
// simulated Chengdu dataset (workload/chengdu.h — the GAIA trips are
// access-gated, so the paper's Table III figures drive a synthetic stand-in
// with its hotspot structure), built from the benchmark seed alone:
//
//   * each day is the paper's half-hour slice (14:00-14:30) with its Table
//     III sizes: the day's 4,245-5,034 tasks and 8,000 workers (the model's
//     default, inside the paper's 6,000-10,000 range); the slices are
//     served back to back;
//   * arrival times within a slice follow the repository's event-trace law
//     (tbf::GenerateEventTrace, workload/synthetic.h): workers uniform over
//     the first half of the slice, tasks uniform over all of it, and a
//     worker departs with probability kDepartureProbability at a uniform
//     time after arriving;
//   * worker ids repeat from day to day (the same drivers), task ids do
//     not; locations are normalized to the 200 x 200 frame the paper's
//     epsilon range is defined on (1 unit = 50 m).
//
// The workload spec fixes how the trace is served (shards, epochs, budgets,
// durability). Each setting is taken from an existing caller of the
// serving stack, named next to the spec in workload.cc.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/result.h"
#include "workload/instance.h"

namespace perfbench {

/// Simulated days per trace. Every checkpoint re-serializes all task
/// outcomes so far, so the durable replay's cost grows with the square of
/// the trace length; five days keep one replay near a second, and a run
/// of many replays steady.
inline constexpr int kDays = 5;

/// Share of workers that go offline again (examples/event_replay.cpp).
inline constexpr double kDepartureProbability = 0.1;

/// \brief One named benchmark workload: how its trace is served.
struct WorkloadSpec {
  std::string name;
  int num_shards = 1;
  double epoch_seconds = 60.0;
  /// Per-worker epsilon cap per epoch, in multiples of the report epsilon
  /// (examples/event_replay.cpp: --epoch-budget=1.2 at --eps=0.6).
  double epoch_budget_reports = 2.0;
  /// Group-commit journal plus a checkpoint every checkpoint_every_epochs.
  bool durable = false;
  int checkpoint_every_epochs = 1;
};

/// \brief The benchmark's workloads, by name (nullopt when unknown).
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

/// \brief Builds the event trace for `seed` (deterministic; the same for
/// every workload).
tbf::Result<tbf::EventTrace> BuildTrace(uint64_t seed);

/// \brief Non-private reference: replays `trace` on true locations,
/// assigning every task the Euclidean-nearest available worker (greedy,
/// irrevocable, no budgets). Returns the mean assignment distance over
/// assigned tasks (0 when none was assigned).
double GreedyMeanDistance(const tbf::EventTrace& trace);

}  // namespace perfbench
