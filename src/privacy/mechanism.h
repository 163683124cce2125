// Privacy mechanism interface (paper Def. 4).
//
// A mechanism maps a point of a metric space to an obfuscated point of the
// same space, randomly. PointMechanism obfuscates raw Euclidean
// coordinates (the planar Laplace baseline, privacy/planar_laplace.h); the
// paper's own mechanism obfuscates HST leaves (core/hst_mechanism.h).

#pragma once

#include <string>

#include "common/rng.h"
#include "geo/point.h"

namespace tbf {

/// \brief Randomized map from a true location to a reported location.
class PointMechanism {
 public:
  virtual ~PointMechanism() = default;

  /// Samples an obfuscated location for `truth`.
  virtual Point Obfuscate(const Point& truth, Rng* rng) const = 0;

  /// The privacy budget epsilon this mechanism was configured with.
  virtual double epsilon() const = 0;

  virtual std::string Name() const = 0;
};

/// \brief Pass-through point mechanism (no privacy). Used to measure the
/// privacy cost of the real mechanisms against a non-private floor.
class IdentityPointMechanism final : public PointMechanism {
 public:
  Point Obfuscate(const Point& truth, Rng*) const override { return truth; }
  double epsilon() const override { return 0.0; }
  std::string Name() const override { return "identity"; }
};

}  // namespace tbf
