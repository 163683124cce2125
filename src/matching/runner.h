// End-to-end pipelines for every algorithm the paper compares (Sec. IV):
//
//   Lap-GR  planar Laplace + Euclidean greedy            [baseline 1]
//   Lap-HG  planar Laplace + HST-Greedy                  [baseline 2]
//   TBF     HST mechanism + HST-Greedy                   [the paper]
//   NoPriv  identity mechanism + Euclidean greedy        [extension: floor]
//   OPT     offline Hungarian on true locations          [CR denominator]
//
// and the matching-size case study (Sec. IV-C):
//
//   Prob    planar Laplace + probability ranking          [To et al.]
//   TBF-CS  HST mechanism + nearest-reachable-on-tree
//
// Each pipeline reports the paper's three metrics: total true distance (or
// matching size), total assignment running time, and peak memory.

#pragma once

#include <string>

#include "common/result.h"
#include "matching/greedy_euclid.h"
#include "matching/hst_greedy.h"
#include "matching/types.h"
#include "workload/instance.h"

namespace tbf {

/// \brief Algorithms of the total-distance experiments.
enum class Algorithm {
  kLapGr,
  kLapHg,
  kTbf,
  kNoPrivacyGreedy,
  kOfflineOptimal,
  /// Ablation baseline: discrete exponential mechanism over the same
  /// predefined grid TBF uses + Euclidean greedy — discretization without
  /// the tree (see privacy/exponential.h).
  kExpGr,
};

/// \brief Display name ("Lap-GR", "Lap-HG", "TBF", ...).
const char* AlgorithmName(Algorithm algorithm);

/// \brief Shared pipeline configuration.
struct PipelineConfig {
  /// Privacy budget (Geo-I, per metric unit of the instance's region —
  /// note the paper uses the same numeric range for both spaces).
  /// Default 0.2: the strict end of Table II/III, the regime in which the
  /// paper's headline savings (up to 80-88%) are reported.
  double epsilon = 0.2;

  /// Master seed; obfuscation, tree construction and tie-breaking derive
  /// independent streams from it.
  uint64_t seed = 7;

  /// Predefined point set = grid_side x grid_side uniform grid over the
  /// instance region (N = grid_side^2 on the published HST).
  int grid_side = 32;

  /// Engines (paper complexity by default; index/kd-tree as extensions).
  GreedyEngine greedy_engine = GreedyEngine::kLinearScan;
  HstEngine hst_engine = HstEngine::kLinearScan;

  /// Threads for the batched obfuscation stage (<= 0: all hardware
  /// threads). Results are bit-identical for every thread count: item i
  /// always draws from the same Rng::ForkAt(i) stream. Assignment itself
  /// stays sequential — it is an online process.
  int threads = 0;
};

/// \brief Measurements of one pipeline run.
struct RunMetrics {
  std::string algorithm;
  double total_distance = 0.0;  ///< true Euclidean, matched pairs only
  size_t matched = 0;
  double build_seconds = 0.0;      ///< server setup (HST construction etc.)
  double obfuscate_seconds = 0.0;  ///< client-side reporting
  double match_seconds = 0.0;      ///< paper's "running time": task arrival
                                   ///< to assignment, summed over tasks
  double memory_mb = 0.0;          ///< peak RSS while running (MiB)
  /// Per-task assignment latency (the paper's "each task can be responded
  /// in x seconds" claims): mean and worst case over all tasks.
  double avg_assign_seconds = 0.0;
  double max_assign_seconds = 0.0;

  /// \brief Fine-grained wall-clock breakdown of the pipeline stages.
  /// obfuscate_seconds above remains the whole client-reporting stage
  /// (map + mechanism); these split it and record the parallelism used.
  struct StageBreakdown {
    double map_seconds = 0.0;        ///< nearest-predefined-point mapping
    double obfuscate_seconds = 0.0;  ///< mechanism draws only
    double assign_seconds = 0.0;     ///< sequential online assignment
    int threads = 1;                 ///< pool width of the batched stages
    size_t batch_items = 0;          ///< workers + tasks obfuscated
  };
  StageBreakdown stages;

  Matching matching;  ///< the actual assignment
};

/// \brief Runs one algorithm on an OMBM instance.
Result<RunMetrics> RunPipeline(Algorithm algorithm, const OnlineInstance& instance,
                               const PipelineConfig& config);

/// \brief Case-study algorithms (matching-size objective).
enum class CaseStudyAlgorithm {
  kProb,
  kTbf,
};

const char* CaseStudyAlgorithmName(CaseStudyAlgorithm algorithm);

/// \brief Case-study configuration: pipeline settings plus the notification
/// protocol bound (see DESIGN.md "Case-study semantics").
struct CaseStudyConfig {
  PipelineConfig pipeline;
  /// Workers notified per task before it goes unassigned. Default 1 (a
  /// single dispatch per task): the regime that reproduces the paper's
  /// Fig. 8 gaps; larger values let every ranking strategy converge to the
  /// same ceiling.
  size_t max_notifications = 1;
};

/// \brief Measurements of one case-study run.
struct CaseStudyMetrics {
  std::string algorithm;
  size_t matching_size = 0;     ///< tasks accepted by a reachable worker
  size_t notifications = 0;     ///< total workers notified
  double build_seconds = 0.0;
  double obfuscate_seconds = 0.0;
  double match_seconds = 0.0;
  double memory_mb = 0.0;
};

/// \brief Runs one case-study algorithm on a reachability instance.
Result<CaseStudyMetrics> RunCaseStudy(CaseStudyAlgorithm algorithm,
                                      const CaseStudyInstance& instance,
                                      const CaseStudyConfig& config);

}  // namespace tbf
