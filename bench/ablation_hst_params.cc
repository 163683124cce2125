// Beyond-paper ablations of the design choices DESIGN.md calls out:
//   1. predefined-point grid granularity (N) vs TBF distance & build cost,
//   2. tree randomness (beta, permutation) vs run-to-run variance,
//   3. matcher engine: the paper's O(D n) scan vs the availability index.

#include <algorithm>
#include <functional>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "matching/hst_greedy.h"
#include "workload/synthetic.h"

using namespace tbf;
using namespace tbf::bench;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchOptions options = ParseBenchOptions(args);
  PrintModeBanner(options, "Ablation: HST parameters and engines");

  SyntheticConfig data_config;
  data_config.num_tasks = Scaled(3000, options);
  data_config.num_workers = Scaled(5000, options);
  data_config.seed = options.seed;
  OnlineInstance instance =
      Unwrap(GenerateSynthetic(data_config), "generate synthetic");

  // --- 1. Grid granularity. ---
  AsciiTable grid_table("predefined grid granularity (eps = 0.6)",
                        {"grid", "N", "TBF total distance", "HST build (s)",
                         "obfuscate+match (s)"});
  for (int side : {8, 16, 24, 32, 48, 64}) {
    PipelineConfig pipeline;
    pipeline.grid_side = side;
    pipeline.seed = options.seed;
    RunMetrics m =
        Unwrap(RunPipeline(Algorithm::kTbf, instance, pipeline), "run TBF");
    grid_table.AddRow({AsciiTable::Num(side), AsciiTable::Num(side * side),
                       AsciiTable::Num(m.total_distance),
                       AsciiTable::Num(m.build_seconds),
                       AsciiTable::Num(m.obfuscate_seconds + m.match_seconds)});
  }
  grid_table.Print();
  std::cout << "\n";

  // --- 2. Tree randomness: distance spread across independent trees. ---
  RunningStat spread;
  for (uint64_t tree_seed = 0; tree_seed < 10; ++tree_seed) {
    PipelineConfig pipeline;
    pipeline.seed = tree_seed;  // re-randomizes beta, permutation, mechanism
    RunMetrics m =
        Unwrap(RunPipeline(Algorithm::kTbf, instance, pipeline), "run TBF");
    spread.Add(m.total_distance);
  }
  AsciiTable randomness("tree randomness across 10 seeds (beta, pi, noise)",
                        {"metric", "value"});
  randomness.AddRow({"mean total distance", AsciiTable::Num(spread.mean())});
  randomness.AddRow({"stddev", AsciiTable::Num(spread.stddev())});
  randomness.AddRow({"min", AsciiTable::Num(spread.min())});
  randomness.AddRow({"max", AsciiTable::Num(spread.max())});
  randomness.AddRow(
      {"coefficient of variation",
       AsciiTable::Num(spread.stddev() / std::max(1e-12, spread.mean()))});
  randomness.Print();
  std::cout << "\n";

  // --- 3. Matcher engine: scan vs index at growing worker counts. ---
  AsciiTable engines("HST-greedy engine: paper scan O(Dn) vs index O(cD)",
                     {"|W|", "scan secs", "index secs", "speedup"});
  Rng tree_rng(5);
  EuclideanMetric metric;
  TbfFramework framework = Unwrap(
      TbfFramework::Build(Unwrap(UniformGridPoints(instance.region, 32), "grid"),
                          metric, &tree_rng),
      "build framework");
  for (int workers : {Scaled(2000, options), Scaled(5000, options),
                      Scaled(10000, options), Scaled(20000, options)}) {
    Rng rng(static_cast<uint64_t>(workers));
    std::vector<LeafCode> leaves;
    leaves.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      Point p{rng.Uniform(0, 200), rng.Uniform(0, 200)};
      leaves.push_back(framework.ObfuscateLocation(p, &rng));
    }
    std::vector<LeafCode> tasks;
    for (int i = 0; i < workers / 2; ++i) {
      Point p{rng.Uniform(0, 200), rng.Uniform(0, 200)};
      tasks.push_back(framework.ObfuscateLocation(p, &rng));
    }
    double scan_secs = 0, index_secs = 0;
    {
      HstGreedyMatcher matcher(leaves, framework.tree().depth(),
                               framework.tree().arity(), HstEngine::kLinearScan);
      WallTimer timer;
      for (const LeafCode t : tasks) matcher.Assign(t);
      scan_secs = timer.ElapsedSeconds();
    }
    {
      HstGreedyMatcher matcher(leaves, framework.tree().depth(),
                               framework.tree().arity(), HstEngine::kIndex);
      WallTimer timer;
      for (const LeafCode t : tasks) matcher.Assign(t);
      index_secs = timer.ElapsedSeconds();
    }
    engines.AddRow({AsciiTable::Num(workers), AsciiTable::Num(scan_secs),
                    AsciiTable::Num(index_secs),
                    AsciiTable::Num(scan_secs / std::max(1e-9, index_secs))});
  }
  engines.Print();
  return 0;
}
