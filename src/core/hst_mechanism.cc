#include "core/hst_mechanism.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math.h"

namespace tbf {

Result<HstMechanism> HstMechanism::Build(const CompleteHst& tree, double epsilon) {
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  HstMechanism m;
  m.depth_ = tree.depth();
  m.arity_ = tree.arity();
  m.epsilon_metric_ = epsilon;
  // Weight exponents use tree-unit distances (edges 2^{i+1}); converting the
  // metric-unit budget keeps the Geo-I guarantee stated in metric units.
  m.epsilon_tree_ = epsilon / tree.scale();

  const int depth = m.depth_;
  const double c = static_cast<double>(m.arity_);
  const double log_c = std::log(c);
  const double log_c_minus_1 = std::log(c - 1.0);

  // log wt_i = eps_T * (4 - 2^{i+2}); exact for i = 0 too (wt_0 = 1).
  m.log_weight_.resize(static_cast<size_t>(depth) + 1);
  m.log_level_total_.resize(static_cast<size_t>(depth) + 1);
  for (int i = 0; i <= depth; ++i) {
    m.log_weight_[static_cast<size_t>(i)] =
        m.epsilon_tree_ * (4.0 - PowerOfTwo(i + 2));
    // |L_i| = (c-1) c^{i-1} leaves share weight wt_i (one leaf at i = 0).
    m.log_level_total_[static_cast<size_t>(i)] =
        i == 0 ? m.log_weight_[0]
               : (i - 1) * log_c + log_c_minus_1 + m.log_weight_[static_cast<size_t>(i)];
  }
  m.log_total_weight_ = LogSumExp(m.log_level_total_);

  // tw_k = total weight of leaves with LCA level >= k (paper Eq. 7);
  // accumulate the suffix sums from the top down.
  m.log_tail_weight_.assign(static_cast<size_t>(depth) + 2, kNegInf);
  for (int k = depth; k >= 0; --k) {
    m.log_tail_weight_[static_cast<size_t>(k)] =
        LogAdd(m.log_tail_weight_[static_cast<size_t>(k) + 1],
               m.log_level_total_[static_cast<size_t>(k)]);
  }

  // pu_i = tw_{i+1} / tw_i; pu_depth = 0 (the walk must turn at the root).
  m.upward_prob_.resize(static_cast<size_t>(depth) + 1);
  for (int i = 0; i <= depth; ++i) {
    double log_num = m.log_tail_weight_[static_cast<size_t>(i) + 1];
    double log_den = m.log_tail_weight_[static_cast<size_t>(i)];
    m.upward_prob_[static_cast<size_t>(i)] =
        log_num == kNegInf ? 0.0 : std::exp(log_num - log_den);
  }

  // Prefix sums of log pu_j make WalkProbability O(1) instead of O(D) per
  // call (equal up to FP regrouping of the old per-call accumulation).
  // pu_j > 0 for all j < D (only pu_D is 0), so every prefix is finite.
  m.log_upward_prefix_.resize(static_cast<size_t>(depth) + 1);
  m.log_upward_prefix_[0] = 0.0;
  for (int i = 0; i < depth; ++i) {
    m.log_upward_prefix_[static_cast<size_t>(i) + 1] =
        m.log_upward_prefix_[static_cast<size_t>(i)] +
        std::log(m.upward_prob_[static_cast<size_t>(i)]);
  }

  // Cumulative level marginal P(lvl <= k) for the oblivious sampler's
  // scan. The walk turns at level i with probability
  // (prod_{j<i} pu_j)(1 - pu_i) = |L_i| wt_i / WT = LevelProbability(i)
  // (Theorem 2), so one Uniform01 against this table replaces up to D
  // Bernoulli draws. The last entry is clamped to 1 so a draw can never
  // fall past the table through rounding.
  m.cum_level_prob_.resize(static_cast<size_t>(depth) + 1);
  double cum = 0.0;
  for (int i = 0; i <= depth; ++i) {
    cum += std::exp(m.log_level_total_[static_cast<size_t>(i)] -
                    m.log_total_weight_);
    m.cum_level_prob_[static_cast<size_t>(i)] = cum;
  }
  m.cum_level_prob_[static_cast<size_t>(depth)] =
      std::max(m.cum_level_prob_[static_cast<size_t>(depth)], 1.0);

  m.codec_.emplace(depth, m.arity_);  // every CompleteHst shape fits

  obs::MetricRegistry* metrics = obs::MetricRegistry::Global();
  m.draws_walk_ = metrics->FindOrCreateCounter(
      obs::LabeledName("tbf_mechanism_draws_total", "sampler", "walk"));
  m.draws_oblivious_ = metrics->FindOrCreateCounter(
      obs::LabeledName("tbf_mechanism_draws_total", "sampler", "oblivious"));
  m.draws_naive_ = metrics->FindOrCreateCounter(
      obs::LabeledName("tbf_mechanism_draws_total", "sampler", "naive"));
  return m;
}

namespace {

// Uniform word onto [0, m) by widening multiply-shift (bias < m / 2^64).
inline int RemapWord(uint64_t word, int m) {
  return static_cast<int>(
      (static_cast<unsigned __int128>(word) * static_cast<uint64_t>(m)) >> 64);
}

// All-ones when `c` is true, zero otherwise — the select primitive of the
// oblivious descent (no data-dependent branch, no cmov dependence on the
// compiler's mood).
inline uint64_t MaskAll(bool c) { return -static_cast<uint64_t>(c); }

// Probe hooks of the oblivious sampler. NoProbe compiles to nothing, so
// the serving instantiation carries zero instrumentation cost.
struct NoProbe {
  void LevelScanIter() {}
  void DescentIter() {}
  void SelectOp() {}
  void RngWord() {}
};

struct TallyProbe {
  ObliviousTally* tally;
  void LevelScanIter() { ++tally->level_scan_iters; }
  void DescentIter() { ++tally->descent_iters; }
  void SelectOp() { ++tally->select_ops; }
  void RngWord() { ++tally->rng_words; }
};

}  // namespace

template <typename Probe>
LeafCode HstMechanism::ObfuscateCodeObliviousImpl(LeafCode truth, Rng* rng,
                                                  Probe probe) const {
  // Word 1: the turn level, by a full scan of the cumulative level table.
  // There is no early exit — every call executes exactly depth_
  // compare-accumulate steps, and the comparison feeds an integer add
  // instead of a branch. The scan counts the levels whose cum <= u, which
  // IS the smallest index with cum > u for a nondecreasing table.
  const double u = rng->Uniform01();
  probe.RngWord();
  const double* cum = cum_level_prob_.data();
  int level = 0;
  for (int k = 0; k < depth_; ++k) {
    level += static_cast<int>(cum[k] <= u);
    probe.LevelScanIter();
  }

  // Word 2: the first rewritten digit. Uniform over [0, arity - 1) by
  // Lemire-style bounded reduction of one full word (rejection-free for
  // every arity), with the != truth constraint folded in by the
  // arithmetic shift past the true digit. At level == 0 the pick is
  // computed against the clamped position depth_ - 1 and then masked away
  // below; the draw happens regardless so the word count never moves.
  const int first = depth_ - level;  // == depth_ when the walk turns at x
  const int old_pos = first - static_cast<int>(first == depth_);
  const int old_digit = codec_->Digit(truth, old_pos);
  const uint64_t pick_word = rng->NextU64();
  probe.RngWord();
  int pick = RemapWord(pick_word, arity_ - 1);
  pick += static_cast<int>(pick >= old_digit);

  // Words 3 .. depth_ + 2: branchless constant-shape descent. Every digit
  // position draws one word and resolves through the same three-way mask
  // select — keep the truth digit above the turn, the pick at the turn,
  // a fresh uniform digit below it — so positions that keep the truth
  // digit cost exactly what rewritten positions cost. first == depth_
  // makes every position a "keep", which returns the truth itself
  // through the identical schedule.
  const int bits = codec_->bits_per_digit();
  LeafCode acc = 0;
  for (int pos = 0; pos < depth_; ++pos) {
    const uint64_t word = rng->NextU64();
    probe.RngWord();
    const int uniform_digit = RemapWord(word, arity_);
    const int keep_digit = codec_->Digit(truth, pos);
    const uint64_t keep_mask = MaskAll(pos < first);
    const uint64_t pick_mask = MaskAll(pos == first);
    const int digit = static_cast<int>(
        (static_cast<uint64_t>(keep_digit) & keep_mask) |
        (static_cast<uint64_t>(pick) & pick_mask) |
        (static_cast<uint64_t>(uniform_digit) & ~(keep_mask | pick_mask)));
    acc = (acc << bits) | static_cast<uint64_t>(digit);
    probe.DescentIter();
    probe.SelectOp();
  }
  return acc << codec_->low_bits();
}

LeafCode HstMechanism::ObfuscateCodeOblivious(LeafCode truth, Rng* rng) const {
  draws_oblivious_->Add(1);
  return ObfuscateCodeObliviousImpl(truth, rng, NoProbe{});
}

LeafCode HstMechanism::ObfuscateCodeOblivious(LeafCode truth, Rng* rng,
                                              ObliviousTally* tally) const {
  draws_oblivious_->Add(1);
  return ObfuscateCodeObliviousImpl(truth, rng, TallyProbe{tally});
}

LeafCode HstMechanism::ObfuscateCodeWalk(LeafCode truth, Rng* rng) const {
  draws_walk_->Add(1);
  // Exactly Obfuscate's draw sequence, digit for digit, on the packed word.
  int turn_level = 0;
  while (turn_level <= depth_ &&
         rng->Bernoulli(upward_prob_[static_cast<size_t>(turn_level)])) {
    ++turn_level;
  }
  if (turn_level == 0) return truth;

  const int first = depth_ - turn_level;
  const int old_digit = codec_->Digit(truth, first);
  int pick = static_cast<int>(rng->UniformInt(0, arity_ - 2));
  if (pick >= old_digit) ++pick;
  LeafCode out = codec_->WithDigit(truth, first, pick);
  for (int pos = first + 1; pos < depth_; ++pos) {
    out = codec_->WithDigit(out, pos,
                            static_cast<int>(rng->UniformInt(0, arity_ - 1)));
  }
  return out;
}

LeafPath HstMechanism::Obfuscate(const LeafPath& truth, Rng* rng) const {
  TBF_DCHECK(static_cast<int>(truth.size()) == depth_) << "leaf depth mismatch";
  draws_walk_->Add(1);
  // Walk upward from the true leaf; at level i keep climbing w.p. pu_i.
  int turn_level = 0;
  while (turn_level <= depth_ &&
         rng->Bernoulli(upward_prob_[static_cast<size_t>(turn_level)])) {
    ++turn_level;
  }
  if (turn_level == 0) return truth;  // turned immediately: output x itself

  // Descend: first step must leave the subtree we came from, so pick a
  // uniform digit different from the truth's; below that, uniform digits.
  LeafPath out = truth;
  const size_t first = static_cast<size_t>(depth_ - turn_level);
  int old_digit = static_cast<int>(truth[first]);
  int pick = static_cast<int>(rng->UniformInt(0, arity_ - 2));
  if (pick >= old_digit) ++pick;
  out[first] = static_cast<char16_t>(pick);
  for (size_t pos = first + 1; pos < out.size(); ++pos) {
    out[pos] = static_cast<char16_t>(rng->UniformInt(0, arity_ - 1));
  }
  return out;
}

Result<LeafPath> HstMechanism::SampleNaive(const LeafPath& truth, Rng* rng,
                                           double max_leaves) const {
  draws_naive_->Add(1);
  TBF_ASSIGN_OR_RETURN(std::vector<LeafPath> leaves, EnumerateLeaves(max_leaves));
  // Single-pass inverse-CDF over the exact distribution (Alg. 2 line 1-2).
  double target = rng->Uniform01();
  double acc = 0.0;
  for (const LeafPath& leaf : leaves) {
    acc += Probability(truth, leaf);
    if (target < acc) return leaf;
  }
  return leaves.back();  // numerical slack: acc summed to slightly below 1
}

double HstMechanism::LogProbability(const LeafPath& x, const LeafPath& z) const {
  int level = LcaLevel(x, z);
  return log_weight_[static_cast<size_t>(level)] - log_total_weight_;
}

double HstMechanism::Probability(const LeafPath& x, const LeafPath& z) const {
  return std::exp(LogProbability(x, z));
}

double HstMechanism::LogProbability(LeafCode x, LeafCode z) const {
  const int level = codec_->LcaLevel(x, z);
  return log_weight_[static_cast<size_t>(level)] - log_total_weight_;
}

double HstMechanism::Probability(LeafCode x, LeafCode z) const {
  return std::exp(LogProbability(x, z));
}

double HstMechanism::LevelProbability(int level) const {
  TBF_CHECK(level >= 0 && level <= depth_) << "level out of range";
  return std::exp(log_level_total_[static_cast<size_t>(level)] - log_total_weight_);
}

double HstMechanism::LogWeight(int level) const {
  TBF_CHECK(level >= 0 && level <= depth_) << "level out of range";
  return log_weight_[static_cast<size_t>(level)];
}

double HstMechanism::UpwardProbability(int level) const {
  TBF_CHECK(level >= 0 && level <= depth_) << "level out of range";
  return upward_prob_[static_cast<size_t>(level)];
}

double HstMechanism::WalkProbability(const LeafPath& x, const LeafPath& z) const {
  const int level = LcaLevel(x, z);
  // log(1 - pu_i) = log(level share of tw_i), exact even when pu_i ~ 1.
  auto log_turn = [this](int i) {
    return log_level_total_[static_cast<size_t>(i)] -
           log_tail_weight_[static_cast<size_t>(i)];
  };
  if (level == 0) return std::exp(log_turn(0));
  // Climb probability: sum_{i<level} log pu_i, precomputed at Build time.
  double log_p = log_turn(level) + log_upward_prefix_[static_cast<size_t>(level)];
  // Downward choices: 1/(c-1) for the first step, 1/c for each step below.
  log_p -= std::log(static_cast<double>(arity_ - 1));
  log_p -= (level - 1) * std::log(static_cast<double>(arity_));
  return std::exp(log_p);
}

Result<std::vector<LeafPath>> HstMechanism::EnumerateLeaves(double max_leaves) const {
  double total = std::pow(static_cast<double>(arity_), depth_);
  if (total > max_leaves) {
    return Status::OutOfRange("complete tree too large to enumerate");
  }
  std::vector<LeafPath> leaves;
  leaves.reserve(static_cast<size_t>(total));
  LeafPath current(static_cast<size_t>(depth_), 0);
  while (true) {
    leaves.push_back(current);
    // Increment the digit string (odometer, least-significant digit last).
    int pos = depth_ - 1;
    while (pos >= 0) {
      if (static_cast<int>(current[static_cast<size_t>(pos)]) + 1 < arity_) {
        ++current[static_cast<size_t>(pos)];
        break;
      }
      current[static_cast<size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return leaves;
}

}  // namespace tbf
