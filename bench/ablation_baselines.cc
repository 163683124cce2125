// Beyond-paper ablation: where does TBF's utility come from?
//
//   NoPriv-GR  no privacy, Euclidean greedy            (utility ceiling)
//   Lap-GR     continuous noise, no discretization     (paper baseline)
//   Exp-GR     discretization, no tree                 (new ablation)
//   Lap-HG     continuous noise + tree matching        (paper baseline)
//   TBF        discretization + tree mechanism + tree matching (the paper)
//
// Also ablates HST-greedy tie-breaking: canonical (deterministic) vs
// uniform-random (Bansal-style randomization).

#include <functional>

#include "bench/bench_common.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "matching/hst_greedy.h"
#include "workload/synthetic.h"

using namespace tbf;
using namespace tbf::bench;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchOptions options = ParseBenchOptions(args);
  PrintModeBanner(options, "Ablation: baseline decomposition");

  SyntheticConfig config;
  config.num_tasks = Scaled(3000, options);
  config.num_workers = Scaled(5000, options);
  config.seed = options.seed;
  OnlineInstance instance =
      Unwrap(GenerateSynthetic(config), "generate synthetic");

  FigureSeries series("baseline decomposition across eps", "eps");
  for (double eps : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    for (Algorithm algorithm :
         {Algorithm::kNoPrivacyGreedy, Algorithm::kLapGr, Algorithm::kExpGr,
          Algorithm::kLapHg, Algorithm::kTbf}) {
      PipelineConfig pipeline;
      pipeline.epsilon = eps;
      pipeline.grid_side = options.grid_side;
      pipeline.seed = options.seed;
      AveragedMetrics metrics =
          Unwrap(RunRepeated(algorithm, instance, pipeline, options.repeats),
                 "run pipeline");
      series.Add(AsciiTable::Num(eps), metrics);
    }
  }
  FigureSeries::PanelSelection panels;
  panels.memory_mb = false;
  series.PrintTables(panels);
  WriteSeries(series, options, "ablation_baselines.csv");
  std::cout << "\n";

  // Tie-breaking ablation: run TBF's matcher with both policies on the
  // same obfuscated inputs.
  AsciiTable tie_table("HST-greedy tie-breaking (TBF inputs, eps = 0.2)",
                       {"policy", "total true distance"});
  // Build the obfuscated inputs once via the TBF pipeline internals: use
  // RunPipeline for canonical, and replicate with random tie-break by
  // re-running the framework manually.
  {
    PipelineConfig pipeline;
    pipeline.epsilon = 0.2;
    pipeline.grid_side = options.grid_side;
    pipeline.seed = options.seed;
    RunMetrics canonical =
        Unwrap(RunPipeline(Algorithm::kTbf, instance, pipeline), "run TBF");
    tie_table.AddRow({"canonical", AsciiTable::Num(canonical.total_distance)});
  }
  {
    // Random tie-break: reuse the framework pieces directly.
    Rng rng(options.seed);
    Rng tree_rng = rng.Split(0);
    Rng obf_rng = rng.Split(1);
    Rng tie_rng = rng.Split(2);
    auto grid = Unwrap(UniformGridPoints(instance.region, options.grid_side),
                       "grid");
    EuclideanMetric metric;
    TbfOptions tbf_options;
    tbf_options.epsilon = 0.2;
    auto framework = Unwrap(
        TbfFramework::Build(std::move(grid), metric, &tree_rng, tbf_options),
        "build framework");
    std::vector<LeafCode> workers;
    for (const Point& w : instance.workers) {
      workers.push_back(framework.ObfuscateLocation(w, &obf_rng));
    }
    std::vector<LeafCode> tasks;
    for (const Point& t : instance.tasks) {
      tasks.push_back(framework.ObfuscateLocation(t, &obf_rng));
    }
    HstGreedyMatcher matcher(workers, framework.tree().depth(),
                             framework.tree().arity(), HstEngine::kIndex,
                             HstTieBreak::kUniformRandom, &tie_rng);
    double total = 0;
    for (size_t t = 0; t < tasks.size(); ++t) {
      int w = matcher.Assign(tasks[t]);
      if (w >= 0) {
        total += EuclideanDistance(instance.tasks[t],
                                   instance.workers[static_cast<size_t>(w)]);
      }
    }
    tie_table.AddRow({"uniform-random", AsciiTable::Num(total)});
  }
  tie_table.Print();
  return 0;
}
