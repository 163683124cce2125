// Publish-and-serve: the deployment-shaped workflow.
//
//   1. The server builds the HST and *publishes* it as a tree snapshot
//      (hst/snapshot.h: the bytes clients would download once).
//   2. Clients parse the published snapshot — no server randomness
//      needed — and report obfuscated leaves, each declaring its epsilon.
//   3. The server enforces a per-user lifetime privacy budget and
//      dispatches tasks online; drivers re-register (spending budget) after
//      each completed job.
//
// Run:  ./examples/publish_and_serve [--eps=0.2] [--budget=1.0]

#include <iostream>

#include "common/cli.h"
#include "core/hst_mechanism.h"
#include "geo/grid.h"
#include "hst/snapshot.h"
#include "serve/sharded_server.h"

using namespace tbf;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const double eps = args.GetDouble("eps", 0.2);
  const double budget = args.GetDouble("budget", 1.0);

  // --- Server side: build and publish. ---
  Rng server_rng(11);
  auto grid = UniformGridPoints(BBox::Square(200.0), 12);
  auto built = CompleteHst::BuildFromPoints(*grid, EuclideanMetric(), &server_rng);
  if (!built.ok()) {
    std::cerr << built.status() << "\n";
    return 1;
  }
  const std::string published = SerializeHstSnapshot(*built);
  std::cout << "published HST snapshot: " << published.size() << " bytes, "
            << built->num_points() << " predefined points\n";

  // --- Client side: parse the published snapshot. ---
  auto client_tree_result = ParseHstSnapshot(published);
  if (!client_tree_result.ok()) {
    std::cerr << client_tree_result.status() << "\n";
    return 1;
  }
  auto client_tree = std::make_shared<const CompleteHst>(
      std::move(client_tree_result).MoveValueUnsafe());
  auto mechanism = HstMechanism::Build(*client_tree, eps);
  if (!mechanism.ok()) {
    std::cerr << mechanism.status() << "\n";
    return 1;
  }

  // --- Server: budget-enforcing dispatch. ---
  ShardedServerOptions options;
  options.lifetime_budget = budget;
  auto created = ShardedTbfServer::Create(client_tree, options);
  if (!created.ok()) {
    std::cerr << created.status() << "\n";
    return 1;
  }
  ShardedTbfServer& server = **created;

  Rng world(99);
  auto report = [&](const Point& loc) {
    return mechanism->ObfuscateCodeWalk(client_tree->MapToNearestLeafCode(loc),
                                        &world);
  };

  // Three drivers join.
  for (const auto& [id, loc] :
       {std::pair<const char*, Point>{"driver-ann", {40, 40}},
        {"driver-bo", {160, 40}},
        {"driver-cy", {100, 160}}}) {
    std::cout << "register " << id << ": "
              << server.RegisterWorker(id, report(loc), eps) << "\n";
  }

  // Riders arrive; after each completed trip the driver re-registers at
  // the dropoff, spending more budget — until the ledger refuses.
  int trips = 0;
  for (int round = 0; round < 12; ++round) {
    Point pickup{world.Uniform(0, 200), world.Uniform(0, 200)};
    std::string rider = "rider-";
    rider += std::to_string(round);
    auto dispatch = server.SubmitTask(rider, report(pickup), eps);
    if (!dispatch.ok()) {
      std::cout << rider << ": " << dispatch.status() << "\n";
      continue;
    }
    if (!dispatch->worker) {
      std::cout << rider << ": no drivers available (budget exhausted fleet)\n";
      break;
    }
    ++trips;
    std::cout << rider << " -> " << *dispatch->worker
              << " (reported tree distance "
              << dispatch->reported_tree_distance << ")\n";
    // The driver finishes the trip and tries to come back online.
    Point dropoff{world.Uniform(0, 200), world.Uniform(0, 200)};
    Status back = server.RegisterWorker(*dispatch->worker, report(dropoff), eps);
    if (!back.ok()) {
      std::cout << "  " << *dispatch->worker
                << " cannot re-register: " << back << "\n";
    }
  }
  std::cout << "completed trips: " << trips
            << "; drivers still online: " << server.available_workers()
            << "\n(each report cost eps=" << eps << " of a lifetime budget of "
            << budget << ")\n";
  return 0;
}
