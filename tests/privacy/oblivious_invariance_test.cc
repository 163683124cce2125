// The timing-obliviousness harness of SamplerKind::kOblivious.
//
// The threat model: an observer who cannot read a client's true location x
// but can time the obfuscation call, count its branches, or trace its rng
// consumption. The walk sampler's draw count depends on the turn level it
// walks to, and the inverse-CDF sampler's binary search and suffix fill
// take level-dependent trips — so per-sample side channels correlate with
// lvl(x, z), and joined with the *public* output z they narrow x.
// ObfuscateCodeOblivious is built so that every sample executes one fixed
// schedule: exactly depth + 2 rng words, a full cumulative-table scan with
// no early exit, and a branchless constant-trip descent — independent of
// BOTH the true leaf and the level actually drawn.
//
// This file is the machine-checkable statement of that claim, in two
// halves:
//   1. Invariance: the instrumented overload's ObliviousTally and the
//      Rng::draw_count() delta are IDENTICAL across every possible true
//      leaf of a fixed tree shape (all c^depth of them, depth <= 6,
//      arities 2..5) and across seeds (hence across drawn levels).
//   2. Correctness: obliviousness must not cost exactness — chi-square
//      tests pin the oblivious sampler's output distribution to the
//      closed-form Probability() oracle (p > 0.01, Wilson–Hilferty
//      threshold, named seeds per tests/common/stat_policy.h), including
//      odd arities where the digit rewrite uses the rejection-free
//      bounded reduction rather than power-of-two masking.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "common/stat_policy.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "hst/pack_paths.h"
#include "serve/replay.h"
#include "serve/sharded_server.h"
#include "workload/synthetic.h"

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

// Every packed leaf of the complete tree, in lexicographic digit order.
std::vector<LeafCode> AllLeafCodes(const HstMechanism& m) {
  auto leaves = m.EnumerateLeaves();
  EXPECT_TRUE(leaves.ok()) << leaves.status();
  std::vector<LeafCode> codes;
  codes.reserve(leaves->size());
  for (const LeafPath& leaf : *leaves) codes.push_back(m.codec()->Pack(leaf));
  return codes;
}

TEST(ObliviousInvarianceTest, TallyAndDrawCountIdenticalAcrossAllTruths) {
  // The acceptance sweep: for every shape with depth <= 6 and arity in
  // 2..5, run the probed sampler once per possible true leaf (all c^depth
  // of them) at each of three seeds. The executed-operation tally and the
  // rng draw budget must not depend on the truth in any way.
  const uint64_t kSeeds[] = {101, 202, 303};
  for (int depth = 2; depth <= 6; ++depth) {
    for (int arity = 2; arity <= 5; ++arity) {
      CompleteHst tree = ShapedTree(depth, arity);
      HstMechanism m = BuildMechanism(tree, 0.2);
      ASSERT_NE(m.codec(), nullptr);
      const std::vector<LeafCode> truths = AllLeafCodes(m);
      ASSERT_EQ(truths.size(),
                static_cast<size_t>(std::pow(arity, depth) + 0.5));

      for (uint64_t seed : kSeeds) {
        ObliviousTally reference;
        uint64_t reference_draws = 0;
        for (size_t t = 0; t < truths.size(); ++t) {
          Rng rng(seed);
          const uint64_t draws_before = rng.draw_count();
          ObliviousTally tally;
          m.ObfuscateCodeOblivious(truths[t], &rng, &tally);
          const uint64_t draws = rng.draw_count() - draws_before;
          if (t == 0) {
            reference = tally;
            reference_draws = draws;
          }
          // ASSERT (not EXPECT): one mismatch proves the schedule leaks,
          // and c^depth failure lines of output would bury it.
          ASSERT_EQ(tally, reference)
              << "truth #" << t << " depth=" << depth << " arity=" << arity
              << " seed=" << seed;
          ASSERT_EQ(draws, reference_draws) << "truth #" << t;
        }
        // The schedule is not merely uniform but exactly the documented
        // one: depth + 2 words, full-table level scan, full descent.
        EXPECT_EQ(reference.level_scan_iters, static_cast<uint64_t>(depth));
        EXPECT_EQ(reference.descent_iters, static_cast<uint64_t>(depth));
        EXPECT_EQ(reference.select_ops, static_cast<uint64_t>(depth));
        EXPECT_EQ(reference.rng_words, static_cast<uint64_t>(depth) + 2);
        EXPECT_EQ(reference_draws, static_cast<uint64_t>(depth) + 2);
      }
    }
  }
}

TEST(ObliviousInvarianceTest, TallyIdenticalAcrossSampledTruthsOfWideShapes) {
  // Shapes past 64 bits have too many leaves to sweep, so 400 random true
  // leaves per shape stand in for all of them: the tally and the draw
  // count must still not move, and the schedule keeps its documented
  // length. {13, 32} is the smallest shape past one word (65 bits).
  const std::pair<int, int> shapes[] = {{13, 32}, {20, 16}, {40, 3}, {128, 2}};
  for (const auto& [depth, arity] : shapes) {
    CompleteHst tree = ShapedTree(depth, arity);
    HstMechanism m = BuildMechanism(tree, 0.001);
    Rng truth_rng(static_cast<uint64_t>(depth * 1000 + arity));
    for (uint64_t seed : {101u, 202u}) {
      ObliviousTally reference;
      for (int t = 0; t < 400; ++t) {
        const LeafCode truth =
            m.codec()->Pack(RandomLeafPath(depth, arity, &truth_rng));
        Rng rng(seed);
        ObliviousTally tally;
        const LeafCode z = m.ObfuscateCodeOblivious(truth, &rng, &tally);
        ASSERT_TRUE(m.codec()->Validate(z).ok())
            << "depth=" << depth << " arity=" << arity;
        if (t == 0) reference = tally;
        ASSERT_EQ(tally, reference)
            << "truth #" << t << " depth=" << depth << " arity=" << arity
            << " seed=" << seed;
        ASSERT_EQ(rng.draw_count(), static_cast<uint64_t>(depth) + 2);
      }
      EXPECT_EQ(reference.descent_iters, static_cast<uint64_t>(depth));
      EXPECT_EQ(reference.rng_words, static_cast<uint64_t>(depth) + 2);
    }
  }
}

TEST(ObliviousInvarianceTest, TallyIndependentOfDrawnLevel) {
  // Truth-invariance alone is not enough: the walk sampler is also
  // truth-invariant in distribution yet leaks the DRAWN level through its
  // draw count. Here the truth is fixed and 500 seeds drive the sampler
  // through different random outcomes; the tally must never move even
  // though the drawn turn level demonstrably varies.
  CompleteHst tree = ShapedTree(6, 3);
  HstMechanism m = BuildMechanism(tree, 0.3);
  const LeafCodec* codec = m.codec();
  ASSERT_NE(codec, nullptr);
  const LeafCode x = tree.leaf_code_of_point(0);

  std::set<int> levels_seen;
  ObliviousTally reference;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    ObliviousTally tally;
    const LeafCode z = m.ObfuscateCodeOblivious(x, &rng, &tally);
    levels_seen.insert(codec->LcaLevel(x, z));
    if (seed == 1) reference = tally;
    ASSERT_EQ(tally, reference) << "seed " << seed;
    ASSERT_EQ(rng.draw_count(), static_cast<uint64_t>(m.depth()) + 2)
        << "seed " << seed;
  }
  // At eps_tree = 0.3 the level marginal puts >10% on at least three
  // levels, so 500 seeds exercise several — including level 0, the
  // output-equals-truth case that has no special-case branch to hide in.
  EXPECT_GE(levels_seen.size(), 3u);
  EXPECT_TRUE(levels_seen.count(0) > 0)
      << "level 0 (z == x) never drawn; the invariance claim over the "
         "keep-everything schedule went unexercised";
}

TEST(ObliviousInvarianceTest, ProbedOverloadMatchesPlainOverload) {
  // The probe must be a pure observer: same rng state in => same output
  // and same draws out of both overloads (the serving path runs the
  // unprobed one, the harness certifies the probed one — they must be the
  // same sampler).
  const std::pair<int, int> shapes[] = {{4, 4}, {6, 2}, {3, 5}, {5, 3}};
  for (const auto& shape : shapes) {
    CompleteHst tree = ShapedTree(shape.first, shape.second);
    HstMechanism m = BuildMechanism(tree, 0.15);
    const LeafCode x = tree.leaf_code_of_point(0);
    for (uint64_t seed = 1; seed <= 100; ++seed) {
      Rng plain_rng(seed);
      Rng probed_rng(seed);
      ObliviousTally tally;
      const LeafCode plain = m.ObfuscateCodeOblivious(x, &plain_rng);
      const LeafCode probed = m.ObfuscateCodeOblivious(x, &probed_rng, &tally);
      ASSERT_EQ(plain, probed) << "seed " << seed;
      ASSERT_EQ(plain_rng.draw_count(), probed_rng.draw_count());
    }
  }
}

TEST(ObliviousInvarianceTest, OutputsAreValidLeafCodes) {
  // Digit ranges and zero stray bits at serving-scale depths, for
  // power-of-two and odd arities (odd arity exercises the bounded
  // reduction on every digit of the descent).
  const std::pair<int, int> shapes[] = {{16, 4}, {9, 7}, {21, 3}, {8, 8}};
  for (const auto& shape : shapes) {
    CompleteHst tree = ShapedTree(shape.first, shape.second);
    HstMechanism m = BuildMechanism(tree, 0.05);
    const LeafCodec* codec = m.codec();
    ASSERT_NE(codec, nullptr);
    const LeafCode x = tree.leaf_code_of_point(0);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      const LeafCode z = m.ObfuscateCodeOblivious(x, &rng);
      const Status valid = codec->Validate(z);
      ASSERT_TRUE(valid.ok()) << valid.ToString();
      for (int j = 0; j < codec->depth(); ++j) {
        ASSERT_LT(codec->Digit(z, j), shape.second);
      }
    }
  }
}

// One full-distribution chi-square run of the oblivious sampler against
// the exact Probability() oracle over ALL leaves; "" on pass, diagnostic
// on rejection. Degrees of freedom = #leaves - 1: the caller picks (n,
// eps_tree) so no cell pools (asserted).
std::string ObliviousChiSquareTrial(int depth, int arity, double eps_tree,
                                    int n, uint64_t seed) {
  CompleteHst tree = ShapedTree(depth, arity);
  HstMechanism m = BuildMechanism(tree, eps_tree);
  const std::vector<LeafCode> leaves = AllLeafCodes(m);
  const LeafCode x = tree.leaf_code_of_point(0);

  std::map<LeafCode, size_t> index_of;
  std::vector<double> expected;
  expected.reserve(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    index_of[leaves[i]] = i;
    expected.push_back(m.Probability(x, leaves[i]));
    EXPECT_GE(n * expected.back(), 5.0) << "cell would be pooled";
  }

  Rng rng(seed);
  std::vector<size_t> observed(leaves.size(), 0);
  for (int i = 0; i < n; ++i) {
    ++observed[index_of.at(m.ObfuscateCodeOblivious(x, &rng))];
  }
  const double chi2 = ChiSquareStatistic(observed, expected);
  const double df = static_cast<double>(leaves.size()) - 1.0;
  const double threshold = ChiSquareQuantile(df);
  if (chi2 < threshold) return "";
  std::ostringstream failure;
  failure << "chi2=" << chi2 << " > " << threshold << " at df=" << df;
  return failure.str();
}

TEST(ObliviousChiSquareTest, MatchesExactDistributionDepth4Arity4) {
  // The issue's acceptance shape: depth 4, arity 4 — 256 leaves, no
  // pooling at (n=200000, eps=0.1), 255 degrees of freedom, p > 0.01.
  tbf::testing::ExpectStatistical(
      "oblivious sampler vs Probability(), depth 4 arity 4",
      /*primary_seed=*/20260808, /*retry_seed=*/914, [](uint64_t seed) {
        return ObliviousChiSquareTrial(4, 4, 0.1, 200000, seed);
      });
}

TEST(ObliviousChiSquareTest, MatchesExactDistributionOddArityFive) {
  // Odd arity: arity - 1 = 4 candidate first digits come from the bounded
  // reduction with the != truth fold, and every deeper digit from a
  // width-5 reduction — none of it shared with the inverse-CDF rewrite's
  // power-of-two masking, so it gets its own full-distribution pin.
  tbf::testing::ExpectStatistical(
      "oblivious sampler vs Probability(), depth 3 arity 5",
      /*primary_seed=*/20260809, /*retry_seed=*/1529, [](uint64_t seed) {
        return ObliviousChiSquareTrial(3, 5, 0.1, 100000, seed);
      });
}

TEST(ObliviousChiSquareTest, MatchesExactDistributionOddArityThree) {
  // Deeper odd-arity shape: 243 leaves across 6 levels; eps small enough
  // that the deepest level keeps expected counts above the pooling floor.
  tbf::testing::ExpectStatistical(
      "oblivious sampler vs Probability(), depth 5 arity 3",
      /*primary_seed=*/20260810, /*retry_seed=*/4406, [](uint64_t seed) {
        return ObliviousChiSquareTrial(5, 3, 0.02, 120000, seed);
      });
}

TEST(ObliviousBatchTest, BatchApisAgreeUnderObliviousSampler) {
  // With kOblivious configured, the batch must draw item i with
  // ObfuscateCodeOblivious on its own ForkAt stream, and an explicit
  // per-call override on a walk-configured framework must reproduce the
  // configured-sampler run draw for draw.
  Rng rng(6);
  auto grid = UniformGridPoints(BBox::Square(100), 5);
  ASSERT_TRUE(grid.ok());
  TbfOptions options;
  options.sampler = SamplerKind::kOblivious;
  auto framework =
      TbfFramework::Build(std::move(*grid), EuclideanMetric(), &rng, options);
  ASSERT_TRUE(framework.ok());
  EXPECT_EQ(framework->sampler(), SamplerKind::kOblivious);
  const LeafCodec* codec = framework->codec();
  ASSERT_NE(codec, nullptr);

  Rng loc_rng(9);
  std::vector<Point> locations;
  for (int i = 0; i < 300; ++i) {
    locations.push_back({loc_rng.Uniform(0, 100), loc_rng.Uniform(0, 100)});
  }
  const Rng stream(77);
  ThreadPool pool(2);
  std::vector<LeafCode> codes =
      framework->ObfuscateCodes(locations, stream, &pool);
  ASSERT_EQ(codes.size(), locations.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    Rng item_rng = stream.ForkAt(i);
    EXPECT_EQ(codes[i], framework->mechanism().ObfuscateCodeOblivious(
                            framework->TrueLeaf(locations[i]), &item_rng))
        << i;
  }

  // Same grid, walk-configured framework + per-call override.
  Rng rng2(6);
  auto grid2 = UniformGridPoints(BBox::Square(100), 5);
  ASSERT_TRUE(grid2.ok());
  auto walk_framework =
      TbfFramework::Build(std::move(*grid2), EuclideanMetric(), &rng2);
  ASSERT_TRUE(walk_framework.ok());
  std::vector<LeafCode> overridden = walk_framework->ObfuscateCodes(
      locations, stream, &pool, nullptr, 0, SamplerKind::kOblivious);
  EXPECT_EQ(overridden, codes);
}

TEST(ObliviousReplayTest, ReplaySamplerOptionMatchesConfiguredFramework) {
  // Serving end to end: a replay with ReplayOptions::sampler = kOblivious
  // on a walk-configured framework must produce exactly the outcomes of
  // the same replay on a kOblivious-configured framework with the option
  // unset — the plumbing changes which sampler runs, nothing else.
  SyntheticEventConfig config;
  config.base.num_workers = 400;
  config.base.num_tasks = 200;
  config.base.seed = 17;
  config.horizon_seconds = 300.0;
  config.departure_probability = 0.05;
  auto trace = GenerateEventTrace(config);
  ASSERT_TRUE(trace.ok());

  auto build = [](SamplerKind sampler) {
    Rng rng(3);
    auto grid = UniformGridPoints(BBox::Square(200), 16);
    EXPECT_TRUE(grid.ok());
    TbfOptions options;
    // Low enough that obfuscation genuinely spreads: the trailing
    // negative check needs the walk and oblivious draw streams to land on
    // different leaves somewhere in 200 tasks, which a near-identity
    // mechanism (high epsilon) would mask.
    options.epsilon = 0.05;
    options.sampler = sampler;
    auto framework = TbfFramework::Build(std::move(*grid), EuclideanMetric(),
                                         &rng, options);
    EXPECT_TRUE(framework.ok());
    return std::move(framework).MoveValueUnsafe();
  };
  TbfFramework walk_framework = build(SamplerKind::kWalk);
  TbfFramework oblivious_framework = build(SamplerKind::kOblivious);

  ReplayOptions options;
  options.epoch_seconds = 30.0;
  auto configured = RunEventReplay(oblivious_framework, *trace, options);
  ASSERT_TRUE(configured.ok()) << configured.status();

  options.sampler = SamplerKind::kOblivious;
  auto overridden = RunEventReplay(walk_framework, *trace, options);
  ASSERT_TRUE(overridden.ok()) << overridden.status();

  ASSERT_EQ(configured->task_outcomes.size(),
            overridden->task_outcomes.size());
  for (size_t i = 0; i < configured->task_outcomes.size(); ++i) {
    const TaskOutcome& a = configured->task_outcomes[i];
    const TaskOutcome& b = overridden->task_outcomes[i];
    EXPECT_EQ(a.task_id, b.task_id) << i;
    EXPECT_EQ(a.worker, b.worker) << i;
    EXPECT_EQ(a.reported_tree_distance, b.reported_tree_distance) << i;
  }
  EXPECT_EQ(configured->assigned, overridden->assigned);
  EXPECT_EQ(configured->denied, overridden->denied);

  // And the option changes behavior at all: the walk run reports
  // different obfuscation draws, so outcomes diverge somewhere.
  ReplayOptions walk_options;
  walk_options.epoch_seconds = 30.0;
  auto walk_run = RunEventReplay(walk_framework, *trace, walk_options);
  ASSERT_TRUE(walk_run.ok());
  bool any_difference =
      walk_run->assigned != overridden->assigned ||
      walk_run->task_outcomes.size() != overridden->task_outcomes.size();
  for (size_t i = 0;
       !any_difference && i < walk_run->task_outcomes.size(); ++i) {
    any_difference =
        walk_run->task_outcomes[i].worker !=
            overridden->task_outcomes[i].worker ||
        walk_run->task_outcomes[i].reported_tree_distance !=
            overridden->task_outcomes[i].reported_tree_distance;
  }
  EXPECT_TRUE(any_difference)
      << "walk and oblivious replays reported identical outcomes "
         "everywhere — the sampler option is plausibly not plumbed";
}

}  // namespace
}  // namespace tbf
