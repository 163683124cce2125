#include "matching/prob_matcher.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "privacy/planar_laplace.h"

namespace tbf {

ReachabilityTable::ReachabilityTable(double epsilon, double max_observed_distance,
                                     double min_radius, double max_radius,
                                     Rng* rng, int mc_samples, int distance_bins,
                                     int radius_bins)
    : epsilon_(epsilon),
      max_distance_(max_observed_distance),
      min_radius_(min_radius),
      max_radius_(max_radius),
      distance_bins_(distance_bins),
      radius_bins_(radius_bins) {
  TBF_CHECK(epsilon > 0.0) << "epsilon must be positive";
  TBF_CHECK(max_observed_distance > 0.0) << "bad distance domain";
  TBF_CHECK(max_radius >= min_radius && min_radius >= 0.0) << "bad radius domain";
  TBF_CHECK(mc_samples > 0 && distance_bins > 0 && radius_bins > 0);

  // One shared pool of noise-difference vectors: if t = t' + X1, w = w' + X2
  // then t - w = (t' - w') + (X1 - X2); sampling X1 - X2 once lets every
  // cell reuse the pool (common random numbers also smooth the table).
  PlanarLaplaceMechanism laplace(epsilon);
  std::vector<Point> noise_diffs(static_cast<size_t>(mc_samples));
  for (Point& d : noise_diffs) {
    Point a = laplace.Obfuscate({0.0, 0.0}, rng);
    Point b = laplace.Obfuscate({0.0, 0.0}, rng);
    d = a - b;
  }

  table_.resize((static_cast<size_t>(distance_bins_) + 1) *
                (static_cast<size_t>(radius_bins_) + 1));
  for (int i = 0; i <= distance_bins_; ++i) {
    double obs = max_distance_ * static_cast<double>(i) / distance_bins_;
    for (int j = 0; j <= radius_bins_; ++j) {
      double radius =
          radius_bins_ == 0
              ? min_radius_
              : min_radius_ + (max_radius_ - min_radius_) *
                                  static_cast<double>(j) / radius_bins_;
      table_[static_cast<size_t>(i) * (static_cast<size_t>(radius_bins_) + 1) +
             static_cast<size_t>(j)] = CellValue(obs, radius, noise_diffs);
    }
  }
}

double ReachabilityTable::CellValue(double observed_distance, double radius,
                                    const std::vector<Point>& noise_diffs) const {
  // True displacement = observed displacement - noise difference. By radial
  // symmetry place the observed displacement on the x-axis.
  const Point observed{observed_distance, 0.0};
  size_t hits = 0;
  for (const Point& nd : noise_diffs) {
    Point true_disp = observed - nd;
    if (EuclideanDistance(true_disp, {0.0, 0.0}) <= radius) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(noise_diffs.size());
}

double ReachabilityTable::Probability(double observed_distance, double radius) const {
  double di = std::clamp(observed_distance, 0.0, max_distance_) / max_distance_ *
              distance_bins_;
  double rj = max_radius_ == min_radius_
                  ? 0.0
                  : std::clamp(radius, min_radius_, max_radius_) - min_radius_;
  if (max_radius_ > min_radius_) {
    rj = rj / (max_radius_ - min_radius_) * radius_bins_;
  }
  int i0 = std::min(static_cast<int>(di), distance_bins_ - 1);
  int j0 = std::min(static_cast<int>(rj), std::max(radius_bins_ - 1, 0));
  double fx = di - i0;
  double fy = rj - j0;
  auto at = [this](int i, int j) {
    return table_[static_cast<size_t>(i) * (static_cast<size_t>(radius_bins_) + 1) +
                  static_cast<size_t>(j)];
  };
  int i1 = std::min(i0 + 1, distance_bins_);
  int j1 = std::min(j0 + 1, radius_bins_);
  double v0 = at(i0, j0) * (1 - fy) + at(i0, j1) * fy;
  double v1 = at(i1, j0) * (1 - fy) + at(i1, j1) * fy;
  return v0 * (1 - fx) + v1 * fx;
}

ProbMatcher::ProbMatcher(std::vector<Point> workers, std::vector<double> radii,
                         std::shared_ptr<const ReachabilityTable> table)
    : workers_(std::move(workers)),
      radii_(std::move(radii)),
      taken_(workers_.size(), false),
      available_count_(workers_.size()),
      table_(std::move(table)) {
  TBF_CHECK(workers_.size() == radii_.size()) << "radii size mismatch";
  TBF_CHECK(table_ != nullptr) << "table required";
}

std::vector<int> ProbMatcher::Candidates(const Point& task, size_t limit) const {
  // Score all available workers, keep positive probabilities, rank by
  // (probability desc, id asc) for determinism.
  std::vector<std::pair<double, int>> scored;
  scored.reserve(available_count_);
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (taken_[i]) continue;
    double p = table_->Probability(EuclideanDistance(task, workers_[i]), radii_[i]);
    if (p > 0.0) scored.emplace_back(p, static_cast<int>(i));
  }
  size_t take = std::min(limit, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(take),
                    scored.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<int> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

void ProbMatcher::Consume(int worker_id) {
  size_t idx = static_cast<size_t>(worker_id);
  TBF_CHECK(idx < workers_.size() && !taken_[idx]) << "bad consume";
  taken_[idx] = true;
  --available_count_;
}

HstCaseStudyMatcher::HstCaseStudyMatcher(std::vector<LeafCode> workers,
                                         int depth, int arity)
    : index_(depth, arity), workers_(std::move(workers)) {
  for (size_t i = 0; i < workers_.size(); ++i) {
    const Status valid = index_.codec()->Validate(workers_[i]);
    TBF_CHECK(valid.ok()) << "worker leaf: " << valid.ToString();
    index_.Insert(workers_[i], static_cast<int>(i));
  }
}

std::vector<int> HstCaseStudyMatcher::Candidates(LeafCode task,
                                                 size_t limit) const {
  std::vector<int> out;
  for (const auto& item : index_.NearestK(task, limit)) {
    out.push_back(item.first);
  }
  return out;
}

void HstCaseStudyMatcher::Consume(int worker_id) {
  index_.Remove(workers_[static_cast<size_t>(worker_id)], worker_id);
}

}  // namespace tbf
