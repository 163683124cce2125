#include "matching/runner.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/memory.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "matching/hungarian.h"
#include "matching/prob_matcher.h"
#include "privacy/exponential.h"
#include "privacy/planar_laplace.h"

namespace tbf {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kLapGr: return "Lap-GR";
    case Algorithm::kLapHg: return "Lap-HG";
    case Algorithm::kTbf: return "TBF";
    case Algorithm::kNoPrivacyGreedy: return "NoPriv-GR";
    case Algorithm::kOfflineOptimal: return "OPT";
    case Algorithm::kExpGr: return "Exp-GR";
  }
  return "?";
}

const char* CaseStudyAlgorithmName(CaseStudyAlgorithm algorithm) {
  switch (algorithm) {
    case CaseStudyAlgorithm::kProb: return "Prob";
    case CaseStudyAlgorithm::kTbf: return "TBF";
  }
  return "?";
}

namespace {

// Builds the published TBF framework over a uniform grid covering the
// instance region.
Result<TbfFramework> BuildFramework(const OnlineInstance& instance,
                                    const PipelineConfig& config, Rng* rng) {
  TBF_ASSIGN_OR_RETURN(std::vector<Point> grid,
                       UniformGridPoints(instance.region, config.grid_side));
  EuclideanMetric metric;
  TbfOptions options;
  options.epsilon = config.epsilon;
  return TbfFramework::Build(std::move(grid), metric, rng, options);
}

// Batch obfuscation: item i draws from stream.ForkAt(i), so the reports are
// bit-identical for any pool width.
std::vector<Point> ObfuscatePoints(const std::vector<Point>& truth,
                                   const PointMechanism& mechanism,
                                   const Rng& stream, ThreadPool* pool) {
  std::vector<Point> out(truth.size());
  pool->ParallelFor(truth.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Rng item_rng = stream.ForkAt(i);
      out[i] = mechanism.Obfuscate(truth[i], &item_rng);
    }
  });
  return out;
}

// Timed sequential assignment loop shared by both pipelines: per-task wall
// samples feed max/avg, the outer timer the stage total. Mean is computed
// over the same per-task samples as the max, so mean <= max holds even when
// the loop is preempted between timer reads.
template <typename Matcher, typename Report>
void RunAssignLoop(Matcher* matcher, const std::vector<Report>& tasks,
                   RunMetrics* metrics) {
  metrics->matching.pairs.reserve(tasks.size());
  WallTimer match_timer;
  double assign_sample_total = 0.0;
  for (size_t t = 0; t < tasks.size(); ++t) {
    WallTimer assign_timer;
    int worker = matcher->Assign(tasks[t]);
    const double assign_seconds = assign_timer.ElapsedSeconds();
    assign_sample_total += assign_seconds;
    metrics->max_assign_seconds =
        std::max(metrics->max_assign_seconds, assign_seconds);
    metrics->matching.pairs.push_back({static_cast<int>(t), worker});
  }
  metrics->match_seconds = match_timer.ElapsedSeconds();
  metrics->avg_assign_seconds =
      assign_sample_total / static_cast<double>(tasks.size());
  metrics->stages.assign_seconds = metrics->match_seconds;
}

Result<RunMetrics> RunEuclidPipeline(Algorithm algorithm,
                                     const OnlineInstance& instance,
                                     const PipelineConfig& config) {
  RunMetrics metrics;
  metrics.algorithm = AlgorithmName(algorithm);
  MemoryProbe probe;
  Rng rng(config.seed);
  Rng obf_rng = rng.Split(1);
  const Rng worker_stream = obf_rng.Split(0);
  const Rng task_stream = obf_rng.Split(1);
  ThreadPool pool(config.threads);

  std::unique_ptr<PointMechanism> mechanism;
  if (algorithm == Algorithm::kLapGr) {
    mechanism = std::make_unique<PlanarLaplaceMechanism>(config.epsilon,
                                                         instance.region);
  } else if (algorithm == Algorithm::kExpGr) {
    TBF_ASSIGN_OR_RETURN(std::vector<Point> grid,
                         UniformGridPoints(instance.region, config.grid_side));
    mechanism = std::make_unique<DiscreteExponentialMechanism>(std::move(grid),
                                                               config.epsilon);
  } else {
    mechanism = std::make_unique<IdentityPointMechanism>();
  }

  WallTimer obf_timer;
  std::vector<Point> reported_workers =
      ObfuscatePoints(instance.workers, *mechanism, worker_stream, &pool);
  std::vector<Point> reported_tasks =
      ObfuscatePoints(instance.tasks, *mechanism, task_stream, &pool);
  metrics.obfuscate_seconds = obf_timer.ElapsedSeconds();
  metrics.stages.obfuscate_seconds = metrics.obfuscate_seconds;
  metrics.stages.threads = pool.num_threads();
  metrics.stages.batch_items = instance.workers.size() + instance.tasks.size();
  probe.Sample();

  GreedyEuclidMatcher matcher(std::move(reported_workers), config.greedy_engine);
  RunAssignLoop(&matcher, reported_tasks, &metrics);
  probe.Sample();

  metrics.total_distance =
      metrics.matching.TotalTrueDistance(instance.tasks, instance.workers);
  metrics.matched = metrics.matching.MatchedCount();
  metrics.memory_mb = BytesToMiB(probe.max_rss_bytes());
  return metrics;
}

// Maps already-noisy points onto their nearest published leaves in parallel
// (pure reads; ordering-independent).
std::vector<LeafCode> MapToLeaves(const std::vector<Point>& points,
                                  const TbfFramework& framework,
                                  ThreadPool* pool) {
  std::vector<LeafCode> leaves(points.size());
  pool->ParallelFor(points.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      leaves[i] = framework.TrueLeaf(points[i]);
    }
  });
  return leaves;
}

Result<RunMetrics> RunHstPipeline(Algorithm algorithm,
                                  const OnlineInstance& instance,
                                  const PipelineConfig& config) {
  RunMetrics metrics;
  metrics.algorithm = AlgorithmName(algorithm);
  MemoryProbe probe;
  Rng rng(config.seed);
  Rng tree_rng = rng.Split(0);
  Rng obf_rng = rng.Split(1);
  const Rng worker_stream = obf_rng.Split(0);
  const Rng task_stream = obf_rng.Split(1);
  ThreadPool pool(config.threads);

  WallTimer build_timer;
  TBF_ASSIGN_OR_RETURN(TbfFramework framework,
                       BuildFramework(instance, config, &tree_rng));
  metrics.build_seconds = build_timer.ElapsedSeconds();
  probe.Sample();

  // Client-side reporting, batched across the pool.
  WallTimer obf_timer;
  std::vector<LeafCode> reported_workers;
  std::vector<LeafCode> reported_tasks;
  TbfFramework::BatchStageTimings batch_timings;
  if (algorithm == Algorithm::kTbf) {
    reported_workers = framework.ObfuscateCodes(instance.workers, worker_stream,
                                                &pool, &batch_timings);
    reported_tasks = framework.ObfuscateCodes(instance.tasks, task_stream,
                                              &pool, &batch_timings);
  } else {  // Lap-HG: Laplace noise in the plane, then map to the tree
    PlanarLaplaceMechanism laplace(config.epsilon, instance.region);
    WallTimer stage_timer;
    std::vector<Point> noisy_workers =
        ObfuscatePoints(instance.workers, laplace, worker_stream, &pool);
    std::vector<Point> noisy_tasks =
        ObfuscatePoints(instance.tasks, laplace, task_stream, &pool);
    batch_timings.obfuscate_seconds = stage_timer.ElapsedSeconds();
    stage_timer.Restart();
    reported_workers = MapToLeaves(noisy_workers, framework, &pool);
    reported_tasks = MapToLeaves(noisy_tasks, framework, &pool);
    batch_timings.map_seconds = stage_timer.ElapsedSeconds();
  }
  metrics.obfuscate_seconds = obf_timer.ElapsedSeconds();
  metrics.stages.map_seconds = batch_timings.map_seconds;
  metrics.stages.obfuscate_seconds = batch_timings.obfuscate_seconds;
  metrics.stages.threads = pool.num_threads();
  metrics.stages.batch_items = instance.workers.size() + instance.tasks.size();
  probe.Sample();

  HstGreedyMatcher matcher(std::move(reported_workers),
                           framework.tree().depth(), framework.tree().arity(),
                           config.hst_engine);
  RunAssignLoop(&matcher, reported_tasks, &metrics);
  probe.Sample();

  metrics.total_distance =
      metrics.matching.TotalTrueDistance(instance.tasks, instance.workers);
  metrics.matched = metrics.matching.MatchedCount();
  metrics.memory_mb = BytesToMiB(probe.max_rss_bytes());
  return metrics;
}

Result<RunMetrics> RunOfflineOptimal(const OnlineInstance& instance) {
  RunMetrics metrics;
  metrics.algorithm = AlgorithmName(Algorithm::kOfflineOptimal);
  MemoryProbe probe;
  WallTimer timer;
  TBF_ASSIGN_OR_RETURN(Matching matching,
                       OptimalMatching(instance.tasks, instance.workers));
  metrics.match_seconds = timer.ElapsedSeconds();
  probe.Sample();
  metrics.matching = std::move(matching);
  metrics.total_distance =
      metrics.matching.TotalTrueDistance(instance.tasks, instance.workers);
  metrics.matched = metrics.matching.MatchedCount();
  metrics.memory_mb = BytesToMiB(probe.max_rss_bytes());
  return metrics;
}

}  // namespace

Result<RunMetrics> RunPipeline(Algorithm algorithm, const OnlineInstance& instance,
                               const PipelineConfig& config) {
  if (instance.tasks.empty() || instance.workers.empty()) {
    return Status::InvalidArgument("instance must have tasks and workers");
  }
  if (instance.tasks.size() > instance.workers.size()) {
    return Status::InvalidArgument("OMBM requires |T| <= |W|");
  }
  switch (algorithm) {
    case Algorithm::kLapGr:
    case Algorithm::kNoPrivacyGreedy:
    case Algorithm::kExpGr:
      return RunEuclidPipeline(algorithm, instance, config);
    case Algorithm::kLapHg:
    case Algorithm::kTbf:
      return RunHstPipeline(algorithm, instance, config);
    case Algorithm::kOfflineOptimal:
      return RunOfflineOptimal(instance);
  }
  return Status::InvalidArgument("unknown algorithm");
}

namespace {

// Shared notification loop: walk the ranked candidates, a worker accepts
// iff the task is truly within their reachable radius.
template <typename CandidatesFn, typename ConsumeFn>
void NotifyLoop(const CaseStudyInstance& instance, size_t task_index,
                size_t max_notifications, const CandidatesFn& candidates,
                const ConsumeFn& consume, CaseStudyMetrics* metrics) {
  const Point& true_task = instance.tasks[task_index];
  for (int worker : candidates(max_notifications)) {
    ++metrics->notifications;
    double true_distance =
        EuclideanDistance(true_task, instance.workers[static_cast<size_t>(worker)]);
    if (true_distance <= instance.radii[static_cast<size_t>(worker)]) {
      consume(worker);
      ++metrics->matching_size;
      break;
    }
  }
}

Result<CaseStudyMetrics> RunProbCaseStudy(const CaseStudyInstance& instance,
                                          const CaseStudyConfig& config) {
  CaseStudyMetrics metrics;
  metrics.algorithm = CaseStudyAlgorithmName(CaseStudyAlgorithm::kProb);
  MemoryProbe probe;
  Rng rng(config.pipeline.seed);
  Rng table_rng = rng.Split(0);
  Rng obf_rng = rng.Split(1);
  const Rng worker_stream = obf_rng.Split(0);
  const Rng task_stream = obf_rng.Split(1);
  ThreadPool pool(config.pipeline.threads);

  double min_radius = instance.radii.empty() ? 0.0 : instance.radii[0];
  double max_radius = min_radius;
  for (double r : instance.radii) {
    min_radius = std::min(min_radius, r);
    max_radius = std::max(max_radius, r);
  }

  WallTimer build_timer;
  auto table = std::make_shared<const ReachabilityTable>(
      config.pipeline.epsilon, instance.region.Diagonal(), min_radius,
      max_radius, &table_rng);
  metrics.build_seconds = build_timer.ElapsedSeconds();
  probe.Sample();

  PlanarLaplaceMechanism laplace(config.pipeline.epsilon, instance.region);
  WallTimer obf_timer;
  std::vector<Point> reported_workers =
      ObfuscatePoints(instance.workers, laplace, worker_stream, &pool);
  std::vector<Point> reported_tasks =
      ObfuscatePoints(instance.tasks, laplace, task_stream, &pool);
  metrics.obfuscate_seconds = obf_timer.ElapsedSeconds();
  probe.Sample();

  ProbMatcher matcher(std::move(reported_workers), instance.radii, table);
  WallTimer match_timer;
  for (size_t t = 0; t < instance.tasks.size(); ++t) {
    NotifyLoop(
        instance, t, config.max_notifications,
        [&](size_t limit) { return matcher.Candidates(reported_tasks[t], limit); },
        [&](int worker) { matcher.Consume(worker); }, &metrics);
  }
  metrics.match_seconds = match_timer.ElapsedSeconds();
  probe.Sample();
  metrics.memory_mb = BytesToMiB(probe.max_rss_bytes());
  return metrics;
}

Result<CaseStudyMetrics> RunTbfCaseStudy(const CaseStudyInstance& instance,
                                         const CaseStudyConfig& config) {
  CaseStudyMetrics metrics;
  metrics.algorithm = CaseStudyAlgorithmName(CaseStudyAlgorithm::kTbf);
  MemoryProbe probe;
  Rng rng(config.pipeline.seed);
  Rng tree_rng = rng.Split(0);
  Rng obf_rng = rng.Split(1);
  const Rng worker_stream = obf_rng.Split(0);
  const Rng task_stream = obf_rng.Split(1);
  ThreadPool pool(config.pipeline.threads);

  OnlineInstance base;
  base.region = instance.region;
  base.workers = instance.workers;
  base.tasks = instance.tasks;

  WallTimer build_timer;
  TBF_ASSIGN_OR_RETURN(TbfFramework framework,
                       BuildFramework(base, config.pipeline, &tree_rng));
  metrics.build_seconds = build_timer.ElapsedSeconds();
  probe.Sample();

  WallTimer obf_timer;
  std::vector<LeafCode> reported_workers =
      framework.ObfuscateCodes(instance.workers, worker_stream, &pool);
  std::vector<LeafCode> reported_tasks =
      framework.ObfuscateCodes(instance.tasks, task_stream, &pool);
  metrics.obfuscate_seconds = obf_timer.ElapsedSeconds();
  probe.Sample();

  HstCaseStudyMatcher matcher(std::move(reported_workers),
                              framework.tree().depth(), framework.tree().arity());
  WallTimer match_timer;
  for (size_t t = 0; t < instance.tasks.size(); ++t) {
    NotifyLoop(
        instance, t, config.max_notifications,
        [&](size_t limit) { return matcher.Candidates(reported_tasks[t], limit); },
        [&](int worker) { matcher.Consume(worker); }, &metrics);
  }
  metrics.match_seconds = match_timer.ElapsedSeconds();
  probe.Sample();
  metrics.memory_mb = BytesToMiB(probe.max_rss_bytes());
  return metrics;
}

}  // namespace

Result<CaseStudyMetrics> RunCaseStudy(CaseStudyAlgorithm algorithm,
                                      const CaseStudyInstance& instance,
                                      const CaseStudyConfig& config) {
  if (instance.tasks.empty() || instance.workers.empty()) {
    return Status::InvalidArgument("instance must have tasks and workers");
  }
  if (instance.workers.size() != instance.radii.size()) {
    return Status::InvalidArgument("radii size mismatch");
  }
  switch (algorithm) {
    case CaseStudyAlgorithm::kProb:
      return RunProbCaseStudy(instance, config);
    case CaseStudyAlgorithm::kTbf:
      return RunTbfCaseStudy(instance, config);
  }
  return Status::InvalidArgument("unknown algorithm");
}

}  // namespace tbf
