// The paper's privacy mechanism on the complete c-ary HST (Sec. III-C/D).
//
// Given a true leaf x, a leaf z whose LCA with x sits at level i is chosen
// with probability wt_i / WT, where
//   wt_0 = 1,  wt_i = exp(eps_T * (4 - 2^{i+2}))   (eps_T in tree units),
//   WT   = wt_0 + sum_{i=1..D} c^{i-1} (c-1) wt_i.
// Theorem 1: this is eps-Geo-Indistinguishable w.r.t. the tree metric.
//
// The samplers below all draw the identical distribution:
//   * SampleNaive    — Algorithm 2: enumerates all c^D leaves, O(c^D); only
//     feasible for small trees, kept as the reference for tests.
//   * Obfuscate      — Algorithm 3: the random-walk sampler, O(D) Bernoulli
//     draws; proven (Theorem 2, re-verified by tests here) to produce the
//     identical distribution. ObfuscateCodeWalk is the same walk operating
//     on packed LeafCodes, draw-for-draw identical: SamplerKind::kWalk,
//     the default of every serving path.
//   * ObfuscateCodeOblivious — SamplerKind::kOblivious: a full-table scan
//     of the level marginal and a constant-shape descent, so its timing
//     and rng use do not depend on the true leaf.
//
// All probability math is in log space: wt_i underflows double by level ~6
// at eps_T = 1, but log wt_i is exact at any depth.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "hst/complete_hst.h"
#include "hst/leaf_code.h"
#include "hst/leaf_path.h"
#include "obs/metrics.h"

namespace tbf {

/// \brief Which sampler implementation draws mechanism outputs on the
/// batched/serving paths (the path-based Obfuscate always walks).
enum class SamplerKind {
  /// Algorithm 3 Bernoulli walk — the golden reference; default, so every
  /// existing golden/churn fixture keeps its draw sequence.
  kWalk = 0,
  /// Timing-oblivious sampler: same distribution again, but every sample
  /// consumes exactly depth + 2 rng words and executes an identical
  /// fixed-trip-count instruction schedule no matter which leaf is the
  /// truth or which level is drawn, so neither wall-clock nor trip counts
  /// leak the secret (tests/privacy/oblivious_invariance_test.cc).
  /// Value 1 belonged to the retired inverse-CDF sampler; the numbering is
  /// kept so a kind prints and logs as the same number it always has.
  kOblivious = 2,
};

/// \brief Executed-operation tally of one ObfuscateCodeOblivious call,
/// filled by the probed overload. The invariance harness asserts these
/// are identical across every possible true leaf of a fixed tree shape —
/// together with the Rng draw_count() delta this is the machine-checkable
/// statement of the sampler's obliviousness.
struct ObliviousTally {
  uint64_t level_scan_iters = 0;  ///< full-cumulative-table scan steps
  uint64_t descent_iters = 0;     ///< digit positions rewritten/kept
  uint64_t select_ops = 0;        ///< branchless three-way digit selects
  uint64_t rng_words = 0;         ///< 64-bit words consumed

  friend bool operator==(const ObliviousTally& a, const ObliviousTally& b) {
    return a.level_scan_iters == b.level_scan_iters &&
           a.descent_iters == b.descent_iters &&
           a.select_ops == b.select_ops && a.rng_words == b.rng_words;
  }
  friend bool operator!=(const ObliviousTally& a, const ObliviousTally& b) {
    return !(a == b);
  }
};

/// \brief eps-Geo-I mechanism over the leaves of a complete c-ary HST.
///
/// The object is immutable after construction and thread-safe for
/// concurrent Obfuscate calls with distinct Rngs.
class HstMechanism {
 public:
  /// \brief Builds the mechanism for `tree` with budget `epsilon`.
  ///
  /// `epsilon` is expressed per *metric* unit (same units as the points the
  /// tree was built over); the guarantee is
  ///   M(x1)(z) <= exp(epsilon * dT(x1, x2)) * M(x2)(z)
  /// with dT in metric units, i.e. exactly the paper's Theorem 1 modulo the
  /// internal normalization scale.
  static Result<HstMechanism> Build(const CompleteHst& tree, double epsilon);

  /// \brief Algorithm 3: random-walk sampling, O(D) — the path-based
  /// reference the packed samplers are tested against.
  LeafPath Obfuscate(const LeafPath& truth, Rng* rng) const;

  /// \brief Algorithm 3 on packed codes: consumes exactly the same rng
  /// draws as Obfuscate on the unpacked path, so for any seed
  /// ObfuscateCodeWalk(Pack(x)) == Pack(Obfuscate(x)) — the golden
  /// reference identity the serve pipeline leans on.
  LeafCode ObfuscateCodeWalk(LeafCode truth, Rng* rng) const;

  /// \brief Timing-oblivious sampler on packed codes: the same exact
  /// distribution as ObfuscateCodeWalk, drawn through a schedule whose trip
  /// counts, rng-word consumption (exactly depth + 2 words) and executed
  /// operations are independent of the true leaf AND of the level drawn:
  /// the level comes from a full-table scan with no early exit, the
  /// first rewritten digit folds the != truth constraint in arithmetically
  /// (rejection-free Lemire-style bounded reduction, all arities), and the
  /// descent writes every digit position through branchless mask selects.
  /// An observer timing the call, counting its branches or tracing its rng
  /// learns nothing beyond the tree shape.
  LeafCode ObfuscateCodeOblivious(LeafCode truth, Rng* rng) const;

  /// \brief Instrumented variant filling `tally` with the executed
  /// operation counts (identical draws and outputs to the plain overload
  /// for the same rng state; the probe is compiled separately so the
  /// serving path pays nothing for it).
  LeafCode ObfuscateCodeOblivious(LeafCode truth, Rng* rng,
                                  ObliviousTally* tally) const;

  /// \brief Dispatches to the sampler selected by `kind`.
  LeafCode ObfuscateCodeWith(LeafCode truth, Rng* rng, SamplerKind kind) const {
    switch (kind) {
      case SamplerKind::kWalk:
        return ObfuscateCodeWalk(truth, rng);
      case SamplerKind::kOblivious:
        return ObfuscateCodeOblivious(truth, rng);
    }
    return ObfuscateCodeWalk(truth, rng);  // unreachable
  }

  /// \brief Algorithm 2: enumerate-all-leaves sampling, O(c^D).
  /// Fails when the complete tree has more than `max_leaves` leaves.
  Result<LeafPath> SampleNaive(const LeafPath& truth, Rng* rng,
                               double max_leaves = 1 << 20) const;

  /// \brief Exact log M(x)(z) from the closed form wt_{lvl(x,z)} / WT.
  double LogProbability(const LeafPath& x, const LeafPath& z) const;

  /// \brief Exact M(x)(z).
  double Probability(const LeafPath& x, const LeafPath& z) const;

  /// \brief Exact M(x)(z) on packed codes.
  double LogProbability(LeafCode x, LeafCode z) const;
  double Probability(LeafCode x, LeafCode z) const;

  /// \brief Probability that the output's LCA with the truth is at `level`
  /// (aggregated over the whole sibling set L_level): |L_i| * wt_i / WT.
  double LevelProbability(int level) const;

  /// \brief log wt_i (wt in the paper's Eq. 3/4).
  double LogWeight(int level) const;

  /// \brief log WT.
  double LogTotalWeight() const { return log_total_weight_; }

  /// \brief Upward-continuation probability pu_i of the random walk at
  /// level i (Sec. III-D); pu_D = 0.
  double UpwardProbability(int level) const;

  /// \brief Probability that Algorithm 3 walks the specific up-then-down
  /// path from `x` to `z`; equals Probability(x, z) by Theorem 2 (verified
  /// in tests).
  double WalkProbability(const LeafPath& x, const LeafPath& z) const;

  /// \brief Enumerates every leaf of the complete tree in lexicographic
  /// digit order. Only valid when c^D <= max_leaves (else error).
  Result<std::vector<LeafPath>> EnumerateLeaves(double max_leaves = 1 << 20) const;

  double epsilon() const { return epsilon_metric_; }

  /// Epsilon converted to tree units (epsilon / tree scale), the eps that
  /// appears in the weight formulas.
  double epsilon_tree() const { return epsilon_tree_; }

  int depth() const { return depth_; }
  int arity() const { return arity_; }

  /// \brief Codec of the packed-code sampler API (never null).
  const LeafCodec* codec() const { return codec_ ? &*codec_ : nullptr; }

  std::string Name() const { return "hst-mechanism"; }

 private:
  HstMechanism() = default;

  // Shared body of the oblivious sampler; Probe is either a no-op (plain
  // overload) or an ObliviousTally recorder (probed overload).
  template <typename Probe>
  LeafCode ObfuscateCodeObliviousImpl(LeafCode truth, Rng* rng,
                                      Probe probe) const;

  int depth_ = 0;
  int arity_ = 2;
  double epsilon_metric_ = 0.0;
  double epsilon_tree_ = 0.0;
  std::vector<double> log_weight_;       // log wt_i, i in [0, D]
  std::vector<double> log_level_total_;  // log(|L_i| * wt_i), i in [0, D]
  std::vector<double> log_tail_weight_;  // log tw_k, k in [0, D+1] (last = -inf)
  std::vector<double> upward_prob_;      // pu_i, i in [0, D]
  std::vector<double> log_upward_prefix_;  // sum_{j<i} log pu_j, i in [0, D]
  std::vector<double> cum_level_prob_;   // P(lvl <= k), the oblivious scan
  double log_total_weight_ = 0.0;        // log WT
  std::optional<LeafCodec> codec_;       // always set by Build

  // Draw counters by sampler kind (tbf_mechanism_draws_total{sampler=...}
  // in the process-wide registry): one relaxed striped increment per
  // sample, compiled out under TBF_METRICS_DISABLED.
  obs::Counter* draws_walk_ = nullptr;
  obs::Counter* draws_oblivious_ = nullptr;
  obs::Counter* draws_naive_ = nullptr;
};

}  // namespace tbf
