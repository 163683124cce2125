// Deterministic random number generation.
//
// All randomized components in the library (tree construction, privacy
// mechanisms, workload generators) draw from an explicitly seeded Rng so
// every experiment is reproducible bit-for-bit.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace tbf {

/// \brief Seeded pseudo-random generator: an in-house MT19937-64 whose
/// output is word-for-word identical to std::mt19937_64 seeded with the
/// same mixed seed, but whose first cycle is seeded and twisted lazily.
///
/// A fresh std::mt19937_64 seeds all 312 state words and twists all of
/// them on the first draw, although a ForkAt stream feeding one mechanism
/// sample reads only a handful. Here a stream that has handed out k words
/// of its first cycle has seeded only words 0..155+k and twisted only
/// words 0..k-1. That is exact: in the first cycle the twist of word
/// i < 156 reads untouched word i + 156, and every later word reads only
/// words already twisted (the last one the new word 0, as the standard
/// engine does). Each later cycle regenerates all 312 words at once. When
/// the engine seeds or twists depends only on how many words were drawn,
/// never on their values, so fixed-draw schedules stay fixed.
///
/// ForkAt4 opens four consecutive ForkAt streams at once: their seeding
/// chains are independent, so it runs the four in lockstep and twists
/// each stream's word 0 ahead of its first draw. Each stream it returns
/// is then in a state the serial path never holds (word 0 twisted, none
/// drawn), which the invariant above already covers: a stream whose
/// word 0 is twisted has words 0..m seeded, drawn or not. Rng stays the
/// only code that runs the MT19937-64 recurrence.
///
/// Not thread-safe; create one Rng per thread (use Split() to derive
/// independent streams deterministically).
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Copies carry only the state words that have been seeded.
  Rng(const Rng& other);
  Rng& operator=(const Rng& other);

  // The leaf draw primitives are defined inline: the mechanism samplers
  // spend a handful of nanoseconds per sample, and an out-of-line call per
  // draw would dominate that budget. Values are identical either way.

  /// \brief Uniform double in [0, 1).
  double Uniform01() {
    // 53-bit mantissa resolution in [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// \brief Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform01(); }

  /// \brief Uniform integer in [lo, hi] (inclusive bounds).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief Standard normal sample scaled to N(mean, stddev^2).
  double Normal(double mean, double stddev);

  /// \brief Exponential sample with the given rate (lambda).
  double Exponential(double rate);

  /// \brief Laplace(0, b) sample (double exponential with scale b).
  double Laplace(double scale);

  /// \brief Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    return Uniform01() < p;
  }

  /// \brief Random permutation of {0, 1, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// \brief Fisher-Yates shuffle of an arbitrary vector.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// \brief Samples an index in [0, weights.size()) proportionally to
  /// non-negative weights. Returns the last index if all weights are zero.
  size_t Categorical(const std::vector<double>& weights);

  /// \brief Derives an independent child generator; deterministic in
  /// (parent seed, draw count, salt).
  Rng Split(uint64_t salt = 0);

  /// \brief Stateless per-index child stream: deterministic in (seed,
  /// index) alone — no draws are consumed, so it is const, safe to call
  /// concurrently, and yields the same stream no matter which thread or in
  /// what order item `index` is processed. This is the determinism
  /// foundation of the batch-parallel obfuscation pipeline.
  Rng ForkAt(uint64_t index) const;

  /// \brief The four streams ForkAt(first) .. ForkAt(first + 3), word for
  /// word, seeded together. Cheaper than four ForkAt calls plus their
  /// first draws, because the four seeding chains overlap in the CPU
  /// pipeline. draw_count() starts at 0 on each, as after ForkAt; only
  /// SerializeState before the first draw prints the same future in a
  /// different form (the first word twisted, index 0, instead of the
  /// seeded words and index 312).
  std::array<Rng, 4> ForkAt4(uint64_t first) const;

  /// \brief Raw 64-bit draw.
  uint64_t NextU64() {
    ++draws_;
    if (pos_ == end_) Refill();
    uint64_t z = state_[pos_++];  // MT19937-64 tempering follows
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  uint64_t seed() const { return seed_; }

  /// \brief Number of raw 64-bit engine draws consumed so far. Every
  /// public sampling primitive funnels through this count (the std
  /// distribution wrappers draw via a counting adapter), so deltas of
  /// draw_count() measure exactly how many words an operation consumed —
  /// the probe the oblivious-sampler invariance harness asserts on.
  /// Diagnostic only: not part of SerializeState (a restored generator
  /// continues counting from its current value).
  uint64_t draw_count() const { return draws_; }

  /// \brief Serializes seed + full engine state into a printable
  /// space-separated decimal token string: the seed, then exactly what
  /// `operator<<` prints for a std::mt19937_64 in the same state (312
  /// words and the index; a stream with no draws yet prints its seeded
  /// words and index 312, unless ForkAt4 opened it). RestoreState
  /// round-trips it so the restored generator continues the draw sequence
  /// exactly where the serialized one left off (crash-safe replay
  /// checkpoints rely on this).
  std::string SerializeState() const;

  /// \brief Restores a state produced by SerializeState: exactly a seed,
  /// 312 words and an index in [0, 312], in decimal, with nothing after
  /// them. On anything else the generator is left unchanged and
  /// InvalidArgument is returned.
  Status RestoreState(const std::string& state);

  /// Words of MT19937-64 state.
  static constexpr uint32_t kStateWords = 312;

 private:
  // Makes state_[pos_] readable: twists the next first-cycle word, or
  // regenerates the whole state once pos_ reaches kStateWords.
  void Refill();

  uint64_t seed_;
  uint64_t draws_ = 0;
  // Next word to hand out. Words [pos_, end_) are twisted and unread; in
  // the lazy first cycle end_ is the number of words twisted so far, equal
  // to pos_ except on a ForkAt4 stream before its first draw (pos_ 0,
  // end_ 1), and the words seeded so far follow from end_ alone. Words
  // past them are left uninitialized and never read, so a fresh stream
  // does not pay 2.5 KB of stores up front.
  uint32_t pos_ = 0;
  uint32_t end_ = 0;
  uint64_t state_[kStateWords];
};

}  // namespace tbf
