// Tests of the packed-code samplers (ObfuscateCodeWalk and
// ObfuscateCodeOblivious): exact-distribution chi-square against
// Probability(), marginal agreement of both samplers across random
// epsilons, the draw-for-draw identity of ObfuscateCodeWalk with the
// LeafPath walk, and output validity (packed digit ranges) for
// power-of-two and odd arities.
// (The oblivious sampler's full harness lives in
// tests/privacy/oblivious_invariance_test.cc.)

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "common/stat_policy.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "hst/pack_paths.h"

namespace tbf {
namespace {

// Complete tree of an exact (depth, arity) shape via FromParts: the
// mechanism only reads depth/arity/scale, so a handful of real points is
// enough to pin the shape precisely (scale = 1 => eps_tree = eps).
CompleteHst ShapedTree(int depth, int arity) {
  std::vector<Point> points;
  std::vector<LeafPath> paths;
  const int n = std::min(arity, 4);
  for (int i = 0; i < n; ++i) {
    points.push_back({static_cast<double>(i), 0.0});
    paths.push_back(LeafPath(static_cast<size_t>(depth),
                             static_cast<char16_t>(i)));
  }
  auto tree = CompleteHst::FromParts(depth, arity, 1.0, std::move(points),
                                     PackPaths(depth, arity, paths));
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).MoveValueUnsafe();
}

HstMechanism BuildMechanism(const CompleteHst& tree, double eps_tree) {
  auto m = HstMechanism::Build(tree, eps_tree * tree.scale());
  EXPECT_TRUE(m.ok()) << m.status();
  return std::move(m).MoveValueUnsafe();
}

constexpr SamplerKind kPackedSamplers[] = {SamplerKind::kWalk,
                                           SamplerKind::kOblivious};

const char* SamplerName(SamplerKind kind) {
  return kind == SamplerKind::kOblivious ? "oblivious" : "walk";
}

TEST(ObfuscateCodeTest, ChiSquareMatchesExactDistributionDepth4Arity4) {
  // The issue's acceptance shape: depth 4, arity 4 — 256 leaves, all with
  // expected counts >= 5 at this (n, eps), so no cells are pooled and the
  // statistic has 255 degrees of freedom. Threshold: p > 0.01, named
  // seeds per tests/common/stat_policy.h.
  for (const SamplerKind kind : kPackedSamplers) {
    tbf::testing::ExpectStatistical(
        std::string(SamplerName(kind)) +
            " sampler vs Probability(), depth 4 arity 4",
        /*primary_seed=*/20260730, /*retry_seed=*/511,
        [kind](uint64_t seed) -> std::string {
          CompleteHst tree = ShapedTree(4, 4);
          HstMechanism m = BuildMechanism(tree, 0.1);
          const LeafCodec* codec = m.codec();
          EXPECT_NE(codec, nullptr);

          auto leaves_result = m.EnumerateLeaves();
          EXPECT_TRUE(leaves_result.ok());
          const std::vector<LeafPath>& leaves = *leaves_result;
          EXPECT_EQ(leaves.size(), 256u);

          const LeafCode x = tree.leaf_code_of_point(1);
          std::map<LeafCode, size_t> index_of;
          std::vector<double> expected;
          expected.reserve(leaves.size());
          for (size_t i = 0; i < leaves.size(); ++i) {
            const LeafCode z = codec->Pack(leaves[i]);
            index_of[z] = i;
            expected.push_back(m.Probability(x, z));
            EXPECT_GE(200000 * expected.back(), 5.0) << "cell would be pooled";
          }

          Rng rng(seed);
          const int n = 200000;
          std::vector<size_t> observed(leaves.size(), 0);
          for (int i = 0; i < n; ++i) {
            ++observed[index_of.at(m.ObfuscateCodeWith(x, &rng, kind))];
          }
          const double chi2 = ChiSquareStatistic(observed, expected);
          const double threshold = ChiSquareQuantile(255.0);
          if (chi2 < threshold) return "";
          std::ostringstream failure;
          failure << "chi2=" << chi2 << " > " << threshold;
          return failure.str();
        });
  }
}

TEST(ObfuscateCodeTest, AllSamplersMarginalsAgreeAcrossRandomEpsilons) {
  // Fuzz: on random shapes and epsilons, both samplers' LCA-level
  // marginals must match the exact LevelProbability distribution within
  // the same p > 0.01 chi-square tolerance (driver seed 99 is the named
  // seed; the +10 slack keeps the 10 statistics jointly clear of the
  // individual-tail accumulation).
  Rng driver(99);
  const int shapes[][2] = {{4, 4}, {6, 2}, {3, 5}, {5, 3}, {8, 4}};
  for (const auto& shape : shapes) {
    CompleteHst tree = ShapedTree(shape[0], shape[1]);
    const double eps_tree = driver.Uniform(0.02, 0.5);
    HstMechanism m = BuildMechanism(tree, eps_tree);
    const LeafCodec* codec = m.codec();
    ASSERT_NE(codec, nullptr);
    const LeafCode x = tree.leaf_code_of_point(0);

    std::vector<double> level_probs;
    for (int level = 0; level <= m.depth(); ++level) {
      level_probs.push_back(m.LevelProbability(level));
    }
    const int n = 60000;
    const double threshold =
        ChiSquareQuantile(static_cast<double>(m.depth())) + 10.0;

    Rng walk_rng(driver.NextU64());
    driver.NextU64();  // a retired sampler's seed: keeps the others' seeds
    Rng oblivious_rng(driver.NextU64());
    std::vector<size_t> walk_counts(level_probs.size(), 0);
    std::vector<size_t> oblivious_counts(level_probs.size(), 0);
    for (int i = 0; i < n; ++i) {
      ++walk_counts[static_cast<size_t>(
          codec->LcaLevel(x, m.ObfuscateCodeWalk(x, &walk_rng)))];
      ++oblivious_counts[static_cast<size_t>(
          codec->LcaLevel(x, m.ObfuscateCodeOblivious(x, &oblivious_rng)))];
    }
    EXPECT_LT(ChiSquareStatistic(walk_counts, level_probs), threshold)
        << "walk sampler, depth=" << shape[0] << " arity=" << shape[1]
        << " eps=" << eps_tree;
    EXPECT_LT(ChiSquareStatistic(oblivious_counts, level_probs), threshold)
        << "oblivious sampler, depth=" << shape[0] << " arity=" << shape[1]
        << " eps=" << eps_tree;
  }
}

// Chi-square of the oblivious sampler on a shape past 64 bits, where the
// full leaf set is far too large to enumerate: the cells are (LCA level,
// digit at `position`), whose exact probability is
// LevelProbability(level) times the digit's conditional law — the
// truth's digit above the first rewritten position, uniform over the
// other arity - 1 values at it, and uniform over all `arity` values below
// it. Cells expected under 5 pool into one. "" on pass, a diagnostic on
// rejection.
std::string WideShapeCellTrial(int depth, int arity, int position,
                               double eps_tree, int n, uint64_t seed) {
  CompleteHst tree = ShapedTree(depth, arity);
  HstMechanism m = BuildMechanism(tree, eps_tree);
  const LeafCodec& codec = *m.codec();
  Rng truth_rng(seed ^ 0x5EED);
  const LeafCode x = codec.Pack(RandomLeafPath(depth, arity, &truth_rng));
  const int truth_digit = codec.Digit(x, position);

  const auto cell = [&](int level, int digit) {
    return static_cast<size_t>(level * arity + digit);
  };
  std::vector<double> probs(static_cast<size_t>((depth + 1) * arity), 0.0);
  for (int level = 0; level <= depth; ++level) {
    const int first = depth - level;  // == depth: nothing rewritten
    for (int digit = 0; digit < arity; ++digit) {
      double p = 0.0;
      if (position < first) {
        p = digit == truth_digit ? 1.0 : 0.0;
      } else if (position == first) {
        p = digit == truth_digit ? 0.0 : 1.0 / (arity - 1);
      } else {
        p = 1.0 / arity;
      }
      probs[cell(level, digit)] = m.LevelProbability(level) * p;
    }
  }
  std::vector<size_t> counts(probs.size(), 0);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const LeafCode z = m.ObfuscateCodeOblivious(x, &rng);
    ++counts[cell(codec.LcaLevel(x, z), codec.Digit(z, position))];
  }
  std::vector<double> expected;
  std::vector<size_t> observed;
  double pooled_p = 0.0;
  size_t pooled_n = 0;
  for (size_t c = 0; c < probs.size(); ++c) {
    if (probs[c] * n >= 5.0) {
      expected.push_back(probs[c]);
      observed.push_back(counts[c]);
    } else {
      pooled_p += probs[c];
      pooled_n += counts[c];
    }
  }
  if (pooled_p * n >= 5.0) {
    expected.push_back(pooled_p);
    observed.push_back(pooled_n);
  } else if (pooled_n > 25) {
    return "impossible cells drawn " + std::to_string(pooled_n) + " times";
  }
  const double df = static_cast<double>(expected.size()) - 1.0;
  const double chi2 = ChiSquareStatistic(observed, expected);
  const double threshold = ChiSquareQuantile(df);
  if (chi2 < threshold) return "";
  std::ostringstream failure;
  failure << "chi2=" << chi2 << " > " << threshold << " at df=" << df;
  return failure.str();
}

TEST(ObfuscateCodeTest, WideShapeSamplersMatchExactCellsAcrossWordBoundary) {
  // depth 13 x arity 32 (65 bits): the last digit straddles bit 64 of
  // the code, so every suffix the samplers write crosses the word
  // boundary. depth 20 x arity 16 (80 bits) at a tiny epsilon: levels
  // 18-20 carry nearly all the mass, and there the rewritten suffix is
  // 68-76 bits wide. Position 16 is the first digit in the code's low
  // word, position 4 one in its high word.
  struct Case {
    int depth, arity, position;
    double eps_tree;
  };
  const Case cases[] = {
      {13, 32, 12, 0.01}, {20, 16, 16, 1e-7}, {20, 16, 4, 1e-7}};
  for (const Case& c : cases) {
    std::ostringstream label;
    label << "oblivious sampler, depth " << c.depth << " arity " << c.arity;
    tbf::testing::ExpectStatistical(
        label.str(), /*primary_seed=*/20261017, /*retry_seed=*/6502,
        [&](uint64_t seed) {
          return WideShapeCellTrial(c.depth, c.arity, c.position, c.eps_tree,
                                    100000, seed);
        });
  }
}

TEST(ObfuscateCodeTest, CodeWalkIsDrawForDrawIdenticalToPathWalk) {
  // The golden identity the serve pipeline relies on: for any seed,
  // ObfuscateCodeWalk(Pack(x)) == Pack(Obfuscate(x)).
  const std::pair<int, int> shapes[] = {{5, 3}, {7, 4}, {4, 2}, {3, 6}};
  for (const auto& shape : shapes) {
    CompleteHst tree = ShapedTree(shape.first, shape.second);
    HstMechanism m = BuildMechanism(tree, 0.15);
    const LeafCodec* codec = m.codec();
    ASSERT_NE(codec, nullptr);
    const LeafPath x = tree.leaf_of_point(0);
    const LeafCode cx = codec->Pack(x);
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      Rng path_rng(seed);
      Rng code_rng(seed);
      EXPECT_EQ(m.ObfuscateCodeWalk(cx, &code_rng),
                codec->Pack(m.Obfuscate(x, &path_rng)))
          << "seed " << seed;
    }
  }
}

TEST(ObfuscateCodeTest, OutputsAreValidLeafCodes) {
  // Digit ranges and zero stray bits, for power-of-two and odd arities.
  // {13, 32}, {40, 3} and {64, 2} need more than 64 bits.
  const std::pair<int, int> shapes[] = {{16, 4}, {9, 7},  {21, 3},
                                        {8, 8},  {13, 32}, {40, 3}, {64, 2}};
  for (const SamplerKind kind : kPackedSamplers) {
    for (const auto& shape : shapes) {
      CompleteHst tree = ShapedTree(shape.first, shape.second);
      HstMechanism m = BuildMechanism(tree, 0.05);
      const LeafCodec* codec = m.codec();
      ASSERT_NE(codec, nullptr);
      const LeafCode x = tree.leaf_code_of_point(0);
      Rng rng(7);
      for (int i = 0; i < 2000; ++i) {
        const LeafCode z = m.ObfuscateCodeWith(x, &rng, kind);
        const Status valid = codec->Validate(z);
        ASSERT_TRUE(valid.ok()) << SamplerName(kind) << ": " << valid;
        for (int j = 0; j < codec->depth(); ++j) {
          ASSERT_LT(codec->Digit(z, j), shape.second) << SamplerName(kind);
        }
      }
    }
  }
}

TEST(ObfuscateCodeTest, LargeEpsilonConcentratesAndSmallEpsilonSpreads) {
  CompleteHst tree = ShapedTree(4, 4);
  const LeafCodec* codec = tree.codec();
  ASSERT_NE(codec, nullptr);
  const LeafCode x = tree.leaf_code_of_point(0);

  HstMechanism sharp = BuildMechanism(tree, 50.0);
  for (const SamplerKind kind : kPackedSamplers) {
    Rng rng1(3);
    int exact = 0;
    for (int i = 0; i < 1000; ++i) {
      if (sharp.ObfuscateCodeWith(x, &rng1, kind) == x) ++exact;
    }
    EXPECT_GT(exact, 990) << SamplerName(kind);
  }

  HstMechanism flat = BuildMechanism(tree, 1e-7);
  EXPECT_NEAR(flat.Probability(x, x), 1.0 / 256.0, 1e-4);
}

TEST(TbfFrameworkCodeBatchTest, ObfuscateCodesMatchesReferenceWalk) {
  // With the default walk sampler the batch must report exactly the packed
  // output of the path-based Alg. 3 reference on each item's fork — any
  // thread count, any offset.
  Rng rng(5);
  auto grid = UniformGridPoints(BBox::Square(100), 6);
  ASSERT_TRUE(grid.ok());
  auto framework =
      TbfFramework::Build(std::move(*grid), EuclideanMetric(), &rng);
  ASSERT_TRUE(framework.ok());
  const CompleteHst& tree = framework->tree();
  const LeafCodec* codec = framework->codec();
  ASSERT_NE(codec, nullptr);

  Rng loc_rng(8);
  std::vector<Point> locations;
  for (int i = 0; i < 500; ++i) {
    locations.push_back({loc_rng.Uniform(0, 100), loc_rng.Uniform(0, 100)});
  }
  const Rng stream(123);
  ThreadPool pool(3);
  const uint64_t offset = 41;
  std::vector<LeafCode> codes =
      framework->ObfuscateCodes(locations, stream, &pool, nullptr, offset);
  ASSERT_EQ(codes.size(), locations.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    Rng item_rng = stream.ForkAt(offset + i);
    const LeafPath truth =
        tree.leaf_of_point(tree.MapToNearestPoint(locations[i]));
    EXPECT_EQ(codes[i],
              codec->Pack(framework->mechanism().Obfuscate(truth, &item_rng)))
        << i;
  }
}

}  // namespace
}  // namespace tbf
