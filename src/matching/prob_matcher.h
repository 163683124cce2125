// Prob — the baseline of the matching-size case study (Sec. IV-C), after
// To, Shahabi, Xiong: "Privacy-Preserving Online Task Assignment in Spatial
// Crowdsourcing with Untrusted Server" (ICDE 2018).
//
// Workers and tasks report planar-Laplace-obfuscated locations. For an
// arriving task the server estimates, for each available worker, the
// probability that the *true* distance is within the worker's reachable
// radius given the *observed* distance, and notifies workers in decreasing
// probability order until one accepts. The probability has no closed form
// (difference of two planar Laplace noises); as in the original paper's
// implementation it is estimated by Monte Carlo, here tabulated once and
// bilinearly interpolated.
//
// The matching-size variant of TBF ranks candidates by HST distance instead
// (HstCaseStudyMatcher); both run under the same notification protocol.

#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "geo/point.h"
#include "hst/hst_index.h"

namespace tbf {

/// \brief Tabulated estimate of Pr[true distance <= R | observed distance],
/// where both endpoints carry independent planar Laplace noise at `epsilon`.
class ReachabilityTable {
 public:
  /// \param epsilon planar Laplace budget of both endpoints
  /// \param max_observed_distance table domain for the observed distance
  /// \param min_radius,max_radius table domain for the reachable radius
  /// \param rng Monte-Carlo sampling stream
  /// \param mc_samples noise-difference samples shared by all cells
  /// \param distance_bins,radius_bins table resolution
  ReachabilityTable(double epsilon, double max_observed_distance,
                    double min_radius, double max_radius, Rng* rng,
                    int mc_samples = 4096, int distance_bins = 160,
                    int radius_bins = 12);

  /// \brief Interpolated probability estimate; arguments are clamped to the
  /// table domain.
  double Probability(double observed_distance, double radius) const;

  double epsilon() const { return epsilon_; }

 private:
  double CellValue(double observed_distance, double radius,
                   const std::vector<Point>& noise_diffs) const;

  double epsilon_;
  double max_distance_;
  double min_radius_;
  double max_radius_;
  int distance_bins_;
  int radius_bins_;
  std::vector<double> table_;  // (distance_bins+1) x (radius_bins+1), row-major
};

/// \brief The Prob online matcher: ranks available workers by estimated
/// reachability probability.
class ProbMatcher {
 public:
  /// `workers` are reported (obfuscated) locations; `radii` the reachable
  /// radii (public, as in the case study setup).
  ProbMatcher(std::vector<Point> workers, std::vector<double> radii,
              std::shared_ptr<const ReachabilityTable> table);

  /// \brief Up to `limit` available workers in decreasing estimated
  /// reachability for a task reported at `task`. Workers with estimated
  /// probability 0 are omitted.
  std::vector<int> Candidates(const Point& task, size_t limit) const;

  /// \brief Marks a worker as consumed (accepted a task).
  void Consume(int worker_id);

  size_t available() const { return available_count_; }

 private:
  std::vector<Point> workers_;
  std::vector<double> radii_;
  std::vector<bool> taken_;
  size_t available_count_;
  std::shared_ptr<const ReachabilityTable> table_;
};

/// \brief TBF's matching-size variant: ranks available workers by HST
/// distance to the reported task leaf (nearest reachable worker on the
/// tree, Sec. IV-C).
class HstCaseStudyMatcher {
 public:
  HstCaseStudyMatcher(std::vector<LeafCode> workers, int depth, int arity);

  /// Up to `limit` available workers in non-decreasing tree distance.
  std::vector<int> Candidates(LeafCode task, size_t limit) const;

  void Consume(int worker_id);

  size_t available() const { return index_.size(); }

 private:
  HstAvailabilityIndex index_;
  std::vector<LeafCode> workers_;
};

}  // namespace tbf
