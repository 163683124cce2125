#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "common/stats.h"

namespace tbf {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextU64() != b.NextU64()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, Uniform01Range) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, Uniform01Mean) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(rng.Uniform01());
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(RngTest, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-3.0, 9.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.Normal(10.0, 3.0));
  EXPECT_NEAR(stat.mean(), 10.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 3.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(RngTest, LaplaceMoments) {
  Rng rng(23);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.Laplace(2.0));
  // Laplace(0, b): mean 0, variance 2 b^2.
  EXPECT_NEAR(stat.mean(), 0.0, 0.05);
  EXPECT_NEAR(stat.variance(), 8.0, 0.3);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerate) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(37);
  std::vector<int> p = rng.Permutation(100);
  std::vector<int> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(RngTest, PermutationUniformFirstElement) {
  Rng rng(41);
  std::vector<int> counts(5, 0);
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    ++counts[static_cast<size_t>(rng.Permutation(5)[0])];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.2, 0.02);
  }
}

TEST(RngTest, PermutationEmptyAndNegative) {
  Rng rng(43);
  EXPECT_TRUE(rng.Permutation(0).empty());
  EXPECT_TRUE(rng.Permutation(-3).empty());
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(47);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(trials), 0.6, 0.01);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(99);
  Rng parent2(99);
  Rng child1 = parent1.Split(5);
  Rng child2 = parent2.Split(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.NextU64(), child2.NextU64());
  // Different salts after identical draw counts give different streams.
  Rng parent3(99);
  Rng child3 = parent3.Split(6);
  Rng parent4(99);
  Rng child4 = parent4.Split(5);
  int diff = 0;
  for (int i = 0; i < 16; ++i) {
    if (child3.NextU64() != child4.NextU64()) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(RngTest, ForkAtIsStateless) {
  // ForkAt depends on (seed, index) only — not on how many draws the
  // parent has made — so batch items get the same stream no matter when or
  // on which thread they are processed.
  Rng fresh(77);
  Rng burned(77);
  for (int i = 0; i < 100; ++i) burned.NextU64();
  Rng child1 = fresh.ForkAt(9);
  Rng child2 = burned.ForkAt(9);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.NextU64(), child2.NextU64());
}

TEST(RngTest, ForkAtIndicesAndSeedsDecorrelate) {
  Rng parent(77);
  Rng a = parent.ForkAt(0);
  Rng b = parent.ForkAt(1);
  Rng other_parent(78);
  Rng c = other_parent.ForkAt(0);
  // Distinct from each other and from a Split stream of the same salt.
  Rng parent_copy(77);
  Rng split = parent_copy.Split(0);
  int ab_diff = 0, ac_diff = 0, asplit_diff = 0;
  for (int i = 0; i < 16; ++i) {
    uint64_t draw_a = a.NextU64();
    if (draw_a != b.NextU64()) ++ab_diff;
    if (draw_a != c.NextU64()) ++ac_diff;
    if (draw_a != split.NextU64()) ++asplit_diff;
  }
  EXPECT_GT(ab_diff, 0);
  EXPECT_GT(ac_diff, 0);
  EXPECT_GT(asplit_diff, 0);
}

TEST(RngTest, DrawCountCountsEveryEngineWord) {
  // draw_count() is the probe the oblivious-sampler invariance harness
  // reads: every public primitive must funnel its engine words through it.
  Rng rng(61);
  EXPECT_EQ(rng.draw_count(), 0u);
  rng.NextU64();
  EXPECT_EQ(rng.draw_count(), 1u);
  rng.Uniform01();
  EXPECT_EQ(rng.draw_count(), 2u);
  rng.Bernoulli(0.5);
  EXPECT_EQ(rng.draw_count(), 3u);

  // std-distribution wrappers draw via the counting adapter; they may
  // consume several words per sample (rejection, Box–Muller-style pairs)
  // but every word must land in the count.
  const uint64_t before = rng.draw_count();
  rng.UniformInt(0, 5);
  EXPECT_GT(rng.draw_count(), before);
  const uint64_t before_normal = rng.draw_count();
  rng.Normal(0.0, 1.0);
  EXPECT_GT(rng.draw_count(), before_normal);
  const uint64_t before_exp = rng.draw_count();
  rng.Exponential(1.0);
  EXPECT_GT(rng.draw_count(), before_exp);
}

TEST(RngTest, CountingLeavesValuesUnchanged) {
  // The counter must be a pure observer: the emitted values are the
  // engine's, bit for bit, and two same-seeded generators agree on both
  // values and counts across every primitive.
  Rng a(67), b(67);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.UniformInt(0, 999), b.UniformInt(0, 999));
    EXPECT_EQ(a.Normal(1.0, 2.0), b.Normal(1.0, 2.0));
    EXPECT_EQ(a.Exponential(0.5), b.Exponential(0.5));
    EXPECT_EQ(a.Laplace(1.5), b.Laplace(1.5));
    EXPECT_EQ(a.draw_count(), b.draw_count());
  }
}

TEST(RngTest, DrawCountSurvivesStateRoundTripAsDiagnostic) {
  // SerializeState intentionally excludes the counter (the format predates
  // it and checkpoints must stay stable); a restored generator continues
  // the VALUE sequence exactly while counting onward from its own tally.
  Rng original(71);
  for (int i = 0; i < 10; ++i) original.NextU64();
  const std::string state = original.SerializeState();

  Rng restored(1);  // different seed, different draw history
  restored.NextU64();
  ASSERT_TRUE(restored.RestoreState(state).ok());
  const uint64_t restored_base = restored.draw_count();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(restored.NextU64(), original.NextU64());
  }
  EXPECT_EQ(restored.draw_count() - restored_base, 20u);
}

// Rng's own seed finalizer, copied so the oracle below is independent of
// the code under test.
uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string OracleState(uint64_t seed, const std::mt19937_64& engine) {
  std::ostringstream os;
  os << seed << ' ' << engine;
  return os.str();
}

// Draws `count` words from `rng` and from `oracle` (a std::mt19937_64 in
// the same state) and expects identical words, draw counts, serialized
// states, and a restored copy that continues the same stream.
void ExpectMatchesOracle(Rng* rng, std::mt19937_64* oracle, int count) {
  const uint64_t before = rng->draw_count();
  for (int i = 0; i < count; ++i) {
    ASSERT_EQ(rng->NextU64(), (*oracle)())
        << "seed " << rng->seed() << " draw " << i;
  }
  ASSERT_EQ(rng->draw_count() - before, static_cast<uint64_t>(count));
  const std::string state = rng->SerializeState();
  ASSERT_EQ(state, OracleState(rng->seed(), *oracle)) << "seed " << rng->seed();

  Rng restored(0);
  ASSERT_TRUE(restored.RestoreState(state).ok());
  std::mt19937_64 oracle_copy = *oracle;
  Rng rng_copy = *rng;
  for (int i = 0; i < 320; ++i) {
    const uint64_t expected = oracle_copy();
    ASSERT_EQ(restored.NextU64(), expected) << "restored, draw " << i;
    ASSERT_EQ(rng_copy.NextU64(), expected) << "copy, draw " << i;
  }
  ASSERT_EQ(restored.SerializeState(), OracleState(rng->seed(), oracle_copy));
}

TEST(RngOracleTest, LazyEngineMatchesStdMt19937_64) {
  // The lazy first cycle must be invisible: at every draw count around
  // the seeding/twist boundaries (156 = m, 312 = n) the outputs and the
  // serialized state equal std::mt19937_64's, also for ForkAt and Split
  // children and for streams continued after a state round trip.
  const int kCounts[] = {0, 1, 7, 8, 9, 155, 156, 157, 311, 312, 313, 700};
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    for (int count : kCounts) {
      Rng rng(seed);
      std::mt19937_64 oracle(SplitMix(seed));
      ExpectMatchesOracle(&rng, &oracle, count);
    }
    // Child streams: a ForkAt stream and a Split stream (drawn before the
    // split so the parent's own lazy state is exercised too).
    const int count = kCounts[seed % std::size(kCounts)];
    Rng parent(seed);
    const uint64_t index = seed * 7 + 3;
    Rng fork = parent.ForkAt(index);
    const uint64_t fork_seed =
        SplitMix(seed ^ SplitMix(index + 0x6a09e667f3bcc909ULL));
    ASSERT_EQ(fork.seed(), fork_seed);
    std::mt19937_64 fork_oracle(SplitMix(fork_seed));
    ExpectMatchesOracle(&fork, &fork_oracle, count);

    std::mt19937_64 parent_oracle(SplitMix(seed));
    for (int i = 0; i < count; ++i) ASSERT_EQ(parent.NextU64(), parent_oracle());
    Rng child = parent.Split(seed);
    const uint64_t child_seed = SplitMix(parent_oracle() ^ SplitMix(seed));
    ASSERT_EQ(child.seed(), child_seed);
    std::mt19937_64 child_oracle(SplitMix(child_seed));
    ExpectMatchesOracle(&child, &child_oracle, count);
    ASSERT_EQ(parent.SerializeState(), OracleState(seed, parent_oracle));
  }
}

TEST(RngOracleTest, ForkAt4MatchesSerialForkAt) {
  // ForkAt4 seeds four streams in lockstep and twists each one's first
  // word ahead of its first draw; nothing of that may show. Each stream
  // equals ForkAt(first + j) for 1,000 words (past the lazily seeded word
  // 157 and the regeneration at 312), and at every draw count around those
  // boundaries a copy, an assigned copy and a restored copy continue it,
  // with the serial stream's draw_count(). Before the first draw the
  // serialized form differs (twisted word 0, index 0), but it restores to
  // the same stream; after any draw it is the serial stream's.
  const int kCounts[] = {0, 1, 155, 156, 311, 312, 313};
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{77},
                        uint64_t{0x243f6a8885a308d3}}) {
    const Rng parent(seed);
    for (uint64_t first : {uint64_t{0}, uint64_t{5}, ~uint64_t{0} - 1}) {
      std::array<Rng, 4> group = parent.ForkAt4(first);
      for (uint64_t j = 0; j < 4; ++j) {
        Rng serial = parent.ForkAt(first + j);
        ASSERT_EQ(group[j].seed(), serial.seed());
        ASSERT_EQ(group[j].draw_count(), 0u);
        for (int i = 0; i < 1000; ++i) {
          ASSERT_EQ(group[j].NextU64(), serial.NextU64())
              << "seed " << seed << " stream " << first + j << " draw " << i;
        }
        ASSERT_EQ(group[j].draw_count(), serial.draw_count());
      }
      for (int count : kCounts) {
        std::array<Rng, 4> fresh = parent.ForkAt4(first);
        for (uint64_t j = 0; j < 4; ++j) {
          Rng serial = parent.ForkAt(first + j);
          Rng& grouped = fresh[j];
          for (int i = 0; i < count; ++i) {
            ASSERT_EQ(grouped.NextU64(), serial.NextU64());
          }
          ASSERT_EQ(grouped.draw_count(), static_cast<uint64_t>(count));
          ASSERT_EQ(grouped.draw_count(), serial.draw_count());
          const std::string state = grouped.SerializeState();
          if (count > 0) {
            ASSERT_EQ(state, serial.SerializeState());
          }
          Rng restored(0);
          ASSERT_TRUE(restored.RestoreState(state).ok());
          Rng copy = grouped;
          Rng assigned(1);
          assigned = grouped;
          ASSERT_EQ(copy.draw_count(), serial.draw_count());
          ASSERT_EQ(assigned.draw_count(), serial.draw_count());
          for (int i = 0; i < 400; ++i) {
            const uint64_t expected = serial.NextU64();
            ASSERT_EQ(grouped.NextU64(), expected) << "count " << count;
            ASSERT_EQ(copy.NextU64(), expected) << "copy, count " << count;
            ASSERT_EQ(assigned.NextU64(), expected) << "assigned, count " << count;
            ASSERT_EQ(restored.NextU64(), expected) << "restored, count " << count;
          }
          ASSERT_EQ(grouped.SerializeState(), serial.SerializeState());
          ASSERT_EQ(restored.SerializeState(), serial.SerializeState());
        }
      }
    }
  }
}

TEST(RngTest, RestoreStateRejectsMalformedStrings) {
  Rng source(5);
  for (int i = 0; i < 3; ++i) source.NextU64();
  const std::string good = source.SerializeState();

  Rng target(9);
  target.NextU64();
  const std::string before = target.SerializeState();
  const std::string index_999 = good.substr(0, good.rfind(' ') + 1) + "999";
  const std::string index_313 = good.substr(0, good.rfind(' ') + 1) + "313";
  const std::string no_index = good.substr(0, good.rfind(' '));
  const std::string bad[] = {
      "",       good + " 7", good + " ", " " + good, index_999, index_313,
      no_index, "1 2 3",     good.substr(0, good.size() / 2),  "x" + good,
      good + "x",
  };
  for (const std::string& state : bad) {
    const Status status = target.RestoreState(state);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "tail: " << state.substr(state.size() > 40 ? state.size() - 40 : 0);
    EXPECT_EQ(target.SerializeState(), before);
  }
  // The well-formed string, including index 312 (a fresh stream), loads.
  ASSERT_TRUE(target.RestoreState(good).ok());
  EXPECT_EQ(target.SerializeState(), good);
  const std::string fresh = Rng(11).SerializeState();
  EXPECT_EQ(fresh.substr(fresh.rfind(' ') + 1), "312");
  ASSERT_TRUE(target.RestoreState(fresh).ok());
  Rng eleven(11);
  EXPECT_EQ(target.NextU64(), eleven.NextU64());
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(53);
  std::vector<int> v = {1, 1, 2, 3, 5, 8, 13};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  std::sort(original.begin(), original.end());
  EXPECT_EQ(v, original);
}

}  // namespace
}  // namespace tbf
