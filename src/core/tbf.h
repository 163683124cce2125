// TBF — the paper's end-to-end Tree-Based Framework (Fig. 1 workflow).
//
//   1. The server constructs an HST over a predefined, published point set.
//   2. Each worker maps their location to the nearest predefined point's
//      leaf and reports an obfuscated leaf drawn by the HST mechanism.
//   3. Each arriving task does the same.
//   4. The server matches on obfuscated leaves (HST-Greedy, Alg. 4 —
//      implemented in matching/hst_greedy.h).
//
// TbfFramework owns steps 1-3: the published tree, the client-side mapping,
// and the mechanism. Matching lives in matching/ so the same framework
// serves both the distance objective and the matching-size case study.

#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/hst_mechanism.h"
#include "geo/metric.h"
#include "geo/point.h"
#include "hst/complete_hst.h"

namespace tbf {

/// \brief Configuration of the mechanism. The tree is built with the
/// default Algorithm-1 options (HstTreeOptions).
struct TbfOptions {
  /// Privacy budget per metric distance unit.
  double epsilon = 0.6;
};

/// \brief The published HST + mechanism bundle shared by server and clients.
class TbfFramework {
 public:
  /// \brief Builds the HST over `predefined_points` (server side, step 1)
  /// and derives the mechanism. `rng` drives the tree randomness
  /// (permutation, beta).
  static Result<TbfFramework> Build(std::vector<Point> predefined_points,
                                    const Metric& metric, Rng* rng,
                                    const TbfOptions& options = {});

  /// \brief Derives the mechanism for an already published tree — one
  /// reloaded from its snapshot (hst/snapshot.h).
  static Result<TbfFramework> FromTree(std::shared_ptr<const CompleteHst> tree,
                                       const TbfOptions& options = {});

  /// The published complete c-ary HST.
  const CompleteHst& tree() const { return *tree_; }

  /// Shared ownership of the published tree (servers keep it alive past
  /// the framework, e.g. serve/replay.cc handing it to ShardedTbfServer).
  std::shared_ptr<const CompleteHst> tree_ptr() const { return tree_; }

  /// The paper's leaf mechanism at the configured epsilon.
  const HstMechanism& mechanism() const { return *mechanism_; }

  /// \brief Client-side step without privacy: the leaf whose predefined
  /// point is nearest to `location`.
  LeafCode TrueLeaf(const Point& location) const {
    return tree_->MapToNearestLeafCode(location);
  }

  /// \brief Full client-side step: map to the nearest leaf, then obfuscate
  /// with the HST mechanism's Alg. 3 walk (what a worker/task actually
  /// reports).
  LeafCode ObfuscateLocation(const Point& location, Rng* rng) const {
    return mechanism_->ObfuscateCodeWalk(TrueLeaf(location), rng);
  }

  /// \brief Wall-clock breakdown of one ObfuscateCodes call.
  struct BatchStageTimings {
    double map_seconds = 0.0;        ///< nearest-predefined-point mapping
    double obfuscate_seconds = 0.0;  ///< mechanism draws
  };

  /// \brief Batch client-side reporting: maps `locations` to their leaf
  /// codes and obfuscates them across `pool`'s threads. Item i draws from
  /// stream.ForkAt(fork_offset + i), so the output is bit-identical
  /// regardless of thread count or scheduling — and a caller that chops
  /// one logical stream into several batches (the event-time replay loop
  /// obfuscates per epoch) gets results independent of where the cuts
  /// fall by passing the number of items already obfuscated as the
  /// offset. `sampler` picks the mechanism's draw (see SamplerKind); with
  /// the default kWalk, element i equals ObfuscateLocation(locations[i],
  /// &r) for r = stream.ForkAt(fork_offset + i). `timings`, when given,
  /// accumulates the per-stage wall clock.
  std::vector<LeafCode> ObfuscateCodes(
      const std::vector<Point>& locations, const Rng& stream, ThreadPool* pool,
      BatchStageTimings* timings = nullptr, uint64_t fork_offset = 0,
      SamplerKind sampler = SamplerKind::kWalk) const;

  /// \brief Codec of the published tree's packed leaf addressing (never
  /// null: every published tree fits 128-bit codes).
  const LeafCodec* codec() const { return tree_->codec(); }

  double epsilon() const { return mechanism_->epsilon(); }

 private:
  TbfFramework() = default;

  std::shared_ptr<const CompleteHst> tree_;
  std::shared_ptr<const HstMechanism> mechanism_;
};

}  // namespace tbf
