// Privacy explorer: inspect the HST mechanism the way the paper's Table I
// and Example 3 do — per-level weights/probabilities, the random-walk
// parameters, and an exact Geo-Indistinguishability audit of the published
// tree at your chosen epsilon.
//
// Run:  ./examples/privacy_explorer [--eps=0.1] [--grid=4] [--space=200]

#include <cmath>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "core/hst_mechanism.h"
#include "core/theory.h"
#include "geo/grid.h"
#include "privacy/geo_check.h"

using namespace tbf;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const double epsilon = args.GetDouble("eps", 0.1);
  const int grid_side = static_cast<int>(args.GetInt("grid", 4));
  const double space = args.GetDouble("space", 200.0);

  auto grid = UniformGridPoints(BBox::Square(space), grid_side);
  if (!grid.ok()) {
    std::cerr << grid.status() << "\n";
    return 1;
  }
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 3)));
  auto tree = CompleteHst::BuildFromPoints(*grid, EuclideanMetric(), &rng);
  if (!tree.ok()) {
    std::cerr << tree.status() << "\n";
    return 1;
  }
  auto mechanism = HstMechanism::Build(*tree, epsilon);
  if (!mechanism.ok()) {
    std::cerr << mechanism.status() << "\n";
    return 1;
  }

  std::cout << "HST over " << tree->num_points() << " predefined points: depth "
            << tree->depth() << ", arity " << tree->arity() << ", eps "
            << epsilon << " per distance unit (eps_tree "
            << mechanism->epsilon_tree() << ")\n\n";

  // Table I equivalent: per-level weights and probabilities.
  AsciiTable weights("mechanism distribution by LCA level (paper Table I)",
                     {"level i", "|L_i(x)|", "wt_i", "per-leaf prob",
                      "level prob", "tree dist (units)"});
  for (int level = 0; level <= mechanism->depth(); ++level) {
    double sibling_count = level == 0 ? 1.0 : tree->SiblingSetSize(level);
    weights.AddRow(
        {AsciiTable::Num(level), AsciiTable::Num(sibling_count),
         AsciiTable::Num(std::exp(mechanism->LogWeight(level))),
         AsciiTable::Num(std::exp(mechanism->LogWeight(level) -
                                  mechanism->LogTotalWeight())),
         AsciiTable::Num(mechanism->LevelProbability(level)),
         AsciiTable::Num(tree->TreeDistanceForLcaLevel(level))});
  }
  weights.Print();

  // Example 3 equivalent: the random-walk parameters.
  AsciiTable walk("random-walk upward probabilities (paper Example 3)",
                  {"level i", "pu_i"});
  for (int level = 0; level <= mechanism->depth(); ++level) {
    walk.AddRow({AsciiTable::Num(level),
                 AsciiTable::Num(mechanism->UpwardProbability(level))});
  }
  walk.Print();

  // Exact Geo-I audit when the complete tree is small enough to enumerate.
  auto leaves = mechanism->EnumerateLeaves(1 << 14);
  if (leaves.ok()) {
    auto log_prob = [&](int x, int z) {
      return mechanism->LogProbability((*leaves)[static_cast<size_t>(x)],
                                       (*leaves)[static_cast<size_t>(z)]);
    };
    auto distance = [&](int a, int b) {
      return tree->TreeDistanceForLcaLevel(
          LcaLevel((*leaves)[static_cast<size_t>(a)],
                   (*leaves)[static_cast<size_t>(b)]));
    };
    GeoCheckReport report = CheckGeoIndistinguishability(
        static_cast<int>(leaves->size()), static_cast<int>(leaves->size()),
        log_prob, distance, epsilon);
    std::cout << "\nGeo-I audit over all " << leaves->size()
              << " leaves: " << report.ToString() << "\n";
  } else {
    std::cout << "\n(complete tree too large for the exhaustive Geo-I audit;"
                 " rerun with a smaller --grid)\n";
  }

  std::cout << "\nTheorem 3 competitive-ratio shape at this configuration"
               " (hidden constants omitted): "
            << Theorem3RatioShape(epsilon, tree->num_points(), 1000)
            << " for k = 1000\n";
  return 0;
}
