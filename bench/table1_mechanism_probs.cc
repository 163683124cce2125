// Regenerates paper Table I and Examples 1-3: the exact four-point HST
// (beta = 1/2, pi = <o1,o2,o3,o4>), the mechanism's per-level weights and
// probabilities at eps = 0.1, and the random-walk parameters — plus a
// sampled histogram showing Alg. 3 matches the exact distribution.

#include <cmath>
#include <iostream>
#include <map>

#include "common/cli.h"
#include "common/table.h"
#include "core/hst_mechanism.h"
#include "hst/complete_hst.h"

using namespace tbf;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const double eps = args.GetDouble("eps", 0.1);
  const int samples = static_cast<int>(args.GetInt("samples", 200000));

  // Example 1: o1(1,1) o2(2,3) o3(5,3) o4(4,4).
  std::vector<Point> points = {{1, 1}, {2, 3}, {5, 3}, {4, 4}};
  Rng rng(3);
  HstTreeOptions tree_options;
  tree_options.beta = 0.5;
  tree_options.normalize = false;
  tree_options.permutation = {0, 1, 2, 3};
  auto tree =
      CompleteHst::BuildFromPoints(points, EuclideanMetric(), &rng, tree_options);
  if (!tree.ok()) {
    std::cerr << tree.status() << "\n";
    return 1;
  }
  auto mech = HstMechanism::Build(*tree, eps);
  if (!mech.ok()) {
    std::cerr << mech.status() << "\n";
    return 1;
  }
  std::cout << "Example 1 complete HST: depth " << tree->depth() << ", arity "
            << tree->arity() << " (paper: D = 4, c = 2)\n\n";

  AsciiTable table1("Table I: probability of leaf nodes being the obfuscated"
                    " nodes (eps = " + std::to_string(eps) + ")",
                    {"level i", "|L_i(o1)|", "wt_i", "probability"});
  for (int level = 0; level <= tree->depth(); ++level) {
    double count = level == 0 ? 1 : tree->SiblingSetSize(level);
    table1.AddRow({AsciiTable::Num(level), AsciiTable::Num(count),
                   AsciiTable::Num(std::exp(mech->LogWeight(level))),
                   AsciiTable::Num(std::exp(mech->LogWeight(level) -
                                            mech->LogTotalWeight()))});
  }
  table1.Print();
  std::cout << "paper row reference: wt = 1, 0.670, 0.301, 0.061, 0.002;"
               " prob = 0.394, 0.264, 0.119, 0.024, 0.001\n\n";

  AsciiTable example3("Example 3: random-walk upward probabilities",
                      {"level i", "pu_i"});
  for (int level = 0; level <= tree->depth(); ++level) {
    example3.AddRow({AsciiTable::Num(level),
                     AsciiTable::Num(mech->UpwardProbability(level))});
  }
  example3.Print();
  std::cout << "paper reference: pu_0 = 0.606, pu_1 = 0.564\n\n";

  // Alg. 3 sampling vs the exact distribution, aggregated by LCA level.
  Rng sample_rng(11);
  const LeafPath x = tree->leaf_of_point(0);
  std::map<int, int> level_counts;
  for (int i = 0; i < samples; ++i) {
    ++level_counts[LcaLevel(x, mech->Obfuscate(x, &sample_rng))];
  }
  AsciiTable sampled("Alg. 3 sampling check (" + std::to_string(samples) +
                         " draws from o1)",
                     {"level i", "exact level prob", "sampled frequency"});
  for (int level = 0; level <= tree->depth(); ++level) {
    sampled.AddRow(
        {AsciiTable::Num(level), AsciiTable::Num(mech->LevelProbability(level)),
         AsciiTable::Num(static_cast<double>(level_counts[level]) / samples)});
  }
  sampled.Print();
  return 0;
}
