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
#include <filesystem>
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
#include "serve/wal.h"
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
  // With kOblivious, the batch must draw item i with
  // ObfuscateCodeOblivious on its own ForkAt stream.
  Rng rng(6);
  auto grid = UniformGridPoints(BBox::Square(100), 5);
  ASSERT_TRUE(grid.ok());
  auto framework =
      TbfFramework::Build(std::move(*grid), EuclideanMetric(), &rng);
  ASSERT_TRUE(framework.ok());
  const LeafCodec* codec = framework->codec();
  ASSERT_NE(codec, nullptr);

  Rng loc_rng(9);
  std::vector<Point> locations;
  for (int i = 0; i < 300; ++i) {
    locations.push_back({loc_rng.Uniform(0, 100), loc_rng.Uniform(0, 100)});
  }
  const Rng stream(77);
  ThreadPool pool(2);
  std::vector<LeafCode> codes = framework->ObfuscateCodes(
      locations, stream, &pool, nullptr, 0, SamplerKind::kOblivious);
  ASSERT_EQ(codes.size(), locations.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    Rng item_rng = stream.ForkAt(i);
    EXPECT_EQ(codes[i], framework->mechanism().ObfuscateCodeOblivious(
                            framework->TrueLeaf(locations[i]), &item_rng))
        << i;
  }
}

TEST(ObliviousReplayTest, ReplaySamplerOptionMatchesObfuscateCodes) {
  // Serving end to end: a replay with ReplayOptions::sampler = kOblivious
  // journals, for arrival i of the trace, exactly the code
  // ObfuscateCodes draws with kOblivious for item i of the obfuscation
  // stream; and leaving the option unset replays as kWalk, draw for draw.
  SyntheticEventConfig config;
  config.base.num_workers = 400;
  config.base.num_tasks = 200;
  config.base.seed = 17;
  config.horizon_seconds = 300.0;
  config.departure_probability = 0.05;
  auto trace = GenerateEventTrace(config);
  ASSERT_TRUE(trace.ok());

  Rng rng(3);
  auto grid = UniformGridPoints(BBox::Square(200), 16);
  ASSERT_TRUE(grid.ok());
  TbfOptions tbf_options;
  // Low enough that obfuscation genuinely spreads, so the walk and
  // oblivious draw streams land on different leaves and a sampler that is
  // not plumbed through shows.
  tbf_options.epsilon = 0.05;
  auto framework = TbfFramework::Build(std::move(*grid), EuclideanMetric(),
                                       &rng, tbf_options);
  ASSERT_TRUE(framework.ok());

  std::vector<Point> arrivals;
  for (const TimedEvent& event : trace->events) {
    if (event.kind != EventKind::kWorkerDeparture) {
      arrivals.push_back(event.location);
    }
  }
  ReplayOptions options;
  options.epoch_seconds = 30.0;
  ThreadPool pool(1);
  const std::vector<LeafCode> expected =
      framework->ObfuscateCodes(arrivals, Rng(options.obfuscation_seed), &pool,
                                nullptr, 0, SamplerKind::kOblivious);
  const std::vector<LeafCode> walk_codes = framework->ObfuscateCodes(
      arrivals, Rng(options.obfuscation_seed), &pool);
  ASSERT_NE(expected, walk_codes);

  const std::string dir =
      ::testing::TempDir() + "/tbf_oblivious_replay_journal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ReplayOptions durable = options;
  durable.sampler = SamplerKind::kOblivious;
  durable.durable_dir = dir;
  durable.wal_fsync = WalFsyncPolicy::None();
  durable.checkpoint_every_epochs = 1000;  // no checkpoint, no compaction
  auto oblivious = RunEventReplay(*framework, *trace, durable);
  ASSERT_TRUE(oblivious.ok()) << oblivious.status();
  auto journal = ScanWalDir(dir, /*repair_torn_tail=*/false);
  ASSERT_TRUE(journal.ok()) << journal.status();
  // Arrival ordinal of each trace index: departures draw nothing.
  std::vector<size_t> ordinal(trace->events.size(), 0);
  for (size_t i = 0, seen = 0; i < trace->events.size(); ++i) {
    ordinal[i] = seen;
    if (trace->events[i].kind != EventKind::kWorkerDeparture) ++seen;
  }
  size_t checked = 0;
  for (const WalRecord& record : journal->records) {
    if (record.kind != WalRecordKind::kWorkerArrival &&
        record.kind != WalRecordKind::kTaskArrival) {
      continue;
    }
    EXPECT_EQ(record.code,
              expected[ordinal[static_cast<size_t>(record.event_index)]])
        << record.event_index;
    ++checked;
  }
  EXPECT_EQ(checked, arrivals.size());
  std::filesystem::remove_all(dir);

  auto unset = RunEventReplay(*framework, *trace, options);
  ASSERT_TRUE(unset.ok()) << unset.status();
  options.sampler = SamplerKind::kWalk;
  auto walk = RunEventReplay(*framework, *trace, options);
  ASSERT_TRUE(walk.ok()) << walk.status();
  ASSERT_EQ(unset->task_outcomes.size(), walk->task_outcomes.size());
  for (size_t i = 0; i < walk->task_outcomes.size(); ++i) {
    const TaskOutcome& a = unset->task_outcomes[i];
    const TaskOutcome& b = walk->task_outcomes[i];
    EXPECT_EQ(a.task_id, b.task_id) << i;
    EXPECT_EQ(a.worker, b.worker) << i;
    EXPECT_EQ(a.reported_tree_distance, b.reported_tree_distance) << i;
  }
  EXPECT_EQ(unset->assigned, walk->assigned);
}

}  // namespace
}  // namespace tbf
