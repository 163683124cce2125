// Quickstart: the full TBF workflow (paper Fig. 1) through the serving
// API in ~70 lines.
//
//   1. The server builds and publishes a complete HST over predefined
//      points (TbfFramework).
//   2. Workers obfuscate client-side (batched HST mechanism) and register
//      with the server (ShardedTbfServer::RegisterWorker).
//   3. Tasks arrive online, also reporting obfuscated leaves, and are
//      dispatched to the nearest available worker on the tree
//      (ShardedTbfServer::SubmitTask).
//
// The snippet in docs/API.md is kept in sync with this file.
//
// Build & run:  ./example_quickstart [--eps=0.6] [--workers=8] [--tasks=4]

#include <iostream>

#include "common/cli.h"
#include "common/thread_pool.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "serve/sharded_server.h"

using namespace tbf;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const double epsilon = args.GetDouble("eps", 0.6);
  const int num_workers = static_cast<int>(args.GetInt("workers", 8));
  const int num_tasks = static_cast<int>(args.GetInt("tasks", 4));

  // --- Step 1: server publishes the tree over a predefined point grid. ---
  BBox region = BBox::Square(200.0);
  auto grid = UniformGridPoints(region, 16);
  if (!grid.ok()) {
    std::cerr << grid.status() << "\n";
    return 1;
  }
  Rng server_rng(7);
  TbfOptions options;
  options.epsilon = epsilon;
  auto framework = TbfFramework::Build(*grid, EuclideanMetric(), &server_rng, options);
  if (!framework.ok()) {
    std::cerr << framework.status() << "\n";
    return 1;
  }
  std::cout << "Published HST: depth=" << framework->tree().depth()
            << " arity=" << framework->tree().arity()
            << " predefined points N=" << framework->tree().num_points()
            << " (logical leaves c^D=" << framework->tree().num_leaves() << ")\n";

  auto created = ShardedTbfServer::Create(framework->tree_ptr());
  if (!created.ok()) {
    std::cerr << created.status() << "\n";
    return 1;
  }
  ShardedTbfServer& server = **created;

  // --- Step 2: workers obfuscate client-side and register. ---
  Rng world(42);
  std::vector<Point> worker_locations;
  for (int w = 0; w < num_workers; ++w) {
    worker_locations.push_back({world.Uniform(0, 200), world.Uniform(0, 200)});
  }
  ThreadPool pool;  // batched reporting: item i draws from ForkAt(i)
  std::vector<LeafCode> worker_reports =
      framework->ObfuscateCodes(worker_locations, world.Split(1), &pool);
  for (int w = 0; w < num_workers; ++w) {
    const Status status = server.RegisterWorker(
        "w" + std::to_string(w), worker_reports[static_cast<size_t>(w)]);
    if (!status.ok()) std::cerr << status << "\n";
  }
  std::cout << server.available_workers() << " workers available\n";

  // --- Step 3: tasks arrive online and are dispatched on the tree. ---
  std::vector<Point> task_locations;
  for (int t = 0; t < num_tasks; ++t) {
    task_locations.push_back({world.Uniform(0, 200), world.Uniform(0, 200)});
  }
  std::vector<LeafCode> task_reports =
      framework->ObfuscateCodes(task_locations, world.Split(2), &pool);
  double total_true_distance = 0.0;
  for (int t = 0; t < num_tasks; ++t) {
    Result<DispatchResult> dispatched = server.SubmitTask(
        "t" + std::to_string(t), task_reports[static_cast<size_t>(t)]);
    if (!dispatched.ok()) {
      std::cerr << dispatched.status() << "\n";
      continue;
    }
    const DispatchResult& result = *dispatched;
    double true_distance = 0.0;
    if (result.worker) {
      // The server never sees this: true travel cost, for reporting only.
      int w = std::atoi(result.worker->c_str() + 1);
      true_distance = EuclideanDistance(task_locations[static_cast<size_t>(t)],
                                        worker_locations[static_cast<size_t>(w)]);
      total_true_distance += true_distance;
    }
    std::cout << "task " << t << " at " << task_locations[static_cast<size_t>(t)]
              << " -> worker "
              << (result.worker ? *result.worker : "<none>")
              << " (reported tree distance " << result.reported_tree_distance
              << ", true travel distance " << true_distance << ")\n";
  }
  std::cout << "total true distance: " << total_true_distance << "\n"
            << "privacy: every report was " << epsilon
            << "-Geo-Indistinguishable w.r.t. the HST metric\n";
  return 0;
}
