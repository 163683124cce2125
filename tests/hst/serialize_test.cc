#include "hst/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/hst_mechanism.h"
#include "geo/grid.h"

namespace tbf {
namespace {

CompleteHst BuildTree(uint64_t seed = 3, int side = 5) {
  EuclideanMetric metric;
  Rng rng(seed);
  auto grid = UniformGridPoints(BBox::Square(100), side);
  auto tree = CompleteHst::BuildFromPoints(*grid, metric, &rng);
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).MoveValueUnsafe();
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  CompleteHst original = BuildTree();
  auto parsed = ParseCompleteHst(SerializeCompleteHst(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->depth(), original.depth());
  EXPECT_EQ(parsed->arity(), original.arity());
  EXPECT_DOUBLE_EQ(parsed->scale(), original.scale());
  ASSERT_EQ(parsed->num_points(), original.num_points());
  for (int p = 0; p < original.num_points(); ++p) {
    EXPECT_EQ(parsed->points()[static_cast<size_t>(p)],
              original.points()[static_cast<size_t>(p)]);
    EXPECT_EQ(parsed->leaf_of_point(p), original.leaf_of_point(p));
  }
}

TEST(SerializeTest, RoundTripPreservesDistancesAndMapping) {
  CompleteHst original = BuildTree(7);
  auto parsed = ParseCompleteHst(SerializeCompleteHst(original));
  ASSERT_TRUE(parsed.ok());
  for (int a = 0; a < original.num_points(); a += 3) {
    for (int b = 0; b < original.num_points(); b += 5) {
      EXPECT_DOUBLE_EQ(parsed->TreeDistance(parsed->leaf_code_of_point(a),
                                            parsed->leaf_code_of_point(b)),
                       original.TreeDistance(original.leaf_code_of_point(a),
                                             original.leaf_code_of_point(b)));
    }
  }
  Point query{33.3, 61.2};
  EXPECT_EQ(parsed->MapToNearestPoint(query), original.MapToNearestPoint(query));
}

TEST(SerializeTest, RoundTripPreservesPackedCodeDomain) {
  // The serve path runs entirely on packed LeafCodes, so publication must
  // preserve the packed domain bit for bit: a client that parses the
  // published tree has to compute the SAME codes the server computed, or
  // every code-keyed exchange (reports, availability lookups, shard
  // routing) silently desynchronizes. Checks codec shape, every
  // precomputed leaf_code_of_point, the code-keyed point_of_leaf inverse,
  // and the end-to-end MapToNearestLeafCode client mapping.
  CompleteHst original = BuildTree(19, 6);
  auto parsed = ParseCompleteHst(SerializeCompleteHst(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  const LeafCodec* original_codec = original.codec();
  const LeafCodec* parsed_codec = parsed->codec();
  ASSERT_NE(original_codec, nullptr);
  ASSERT_NE(parsed_codec, nullptr);
  EXPECT_EQ(parsed_codec->depth(), original_codec->depth());
  EXPECT_EQ(parsed_codec->arity(), original_codec->arity());
  EXPECT_EQ(parsed_codec->bits_per_digit(), original_codec->bits_per_digit());

  for (int p = 0; p < original.num_points(); ++p) {
    const LeafCode code = original.leaf_code_of_point(p);
    EXPECT_EQ(parsed->leaf_code_of_point(p), code) << "point " << p;
    // Code-keyed inverse lookup agrees across the round trip...
    ASSERT_TRUE(parsed->point_of_leaf(code).has_value()) << "point " << p;
    EXPECT_EQ(*parsed->point_of_leaf(code), p);
    // Pack/Unpack through the parsed codec reproduces the published path.
    EXPECT_EQ(parsed_codec->Pack(original.leaf_of_point(p)), code);
    EXPECT_EQ(parsed_codec->Unpack(code), original.leaf_of_point(p));
  }

  // Client-side mapping: arbitrary query locations map to the same packed
  // code on both trees.
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    const Point query{rng.Uniform(-10, 110), rng.Uniform(-10, 110)};
    EXPECT_EQ(parsed->MapToNearestLeafCode(query),
              original.MapToNearestLeafCode(query));
  }
}

TEST(SerializeTest, HeaderFormat) {
  CompleteHst tree = BuildTree();
  std::string text = SerializeCompleteHst(tree);
  EXPECT_EQ(text.rfind("tbf-hst 1\n", 0), 0u);
  EXPECT_NE(text.find("depth "), std::string::npos);
  EXPECT_NE(text.find("points 25"), std::string::npos);
}

TEST(SerializeTest, RejectsGarbage) {
  EXPECT_FALSE(ParseCompleteHst("").ok());
  EXPECT_FALSE(ParseCompleteHst("not-a-tree 1\n").ok());
  EXPECT_FALSE(ParseCompleteHst("tbf-hst 99\ndepth 1").ok());
}

TEST(SerializeTest, RejectsHeaderWiderThanLeafCode) {
  // depth 25 x arity 36 needs 150 bits: refused before any codec exists.
  auto parsed = ParseCompleteHst(
      "tbf-hst 1\ndepth 25 arity 36 scale 8\npoints 1\n0 0 "
      "0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(
                "depth 25 x arity 36 does not fit 128-bit leaf codes"),
            std::string::npos)
      << parsed.status();
}

TEST(SerializeTest, RejectsTruncatedPointTable) {
  CompleteHst tree = BuildTree();
  std::string text = SerializeCompleteHst(tree);
  // Cut the document in half.
  auto truncated = ParseCompleteHst(text.substr(0, text.size() / 2));
  EXPECT_FALSE(truncated.ok());
}

TEST(SerializeTest, FileRoundTrip) {
  CompleteHst tree = BuildTree(11);
  std::string path = testing::TempDir() + "/tbf_hst_publish.txt";
  ASSERT_TRUE(WriteCompleteHstFile(tree, path).ok());
  auto loaded = ReadCompleteHstFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->depth(), tree.depth());
  EXPECT_EQ(loaded->num_points(), tree.num_points());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  EXPECT_FALSE(ReadCompleteHstFile("/no/such/tree.txt").ok());
}

TEST(FromPartsTest, ValidatesInvariants) {
  std::vector<Point> pts = {{0, 0}, {1, 1}};
  const LeafCodec codec(2, 2);
  const LeafCode a = codec.Pack({char16_t{0}, char16_t{0}});
  const LeafCode b = codec.Pack({char16_t{1}, char16_t{0}});
  // Happy path.
  EXPECT_TRUE(CompleteHst::FromParts(2, 2, 1.0, pts, {a, b}).ok());
  // Bad ranges / structure.
  EXPECT_FALSE(CompleteHst::FromParts(0, 2, 1.0, pts, {a, b}).ok());
  EXPECT_FALSE(CompleteHst::FromParts(2, 1, 1.0, pts, {a, b}).ok());
  EXPECT_FALSE(CompleteHst::FromParts(2, 2, 0.0, pts, {a, b}).ok());
  EXPECT_FALSE(CompleteHst::FromParts(2, 2, 1.0, {}, {}).ok());
  EXPECT_FALSE(CompleteHst::FromParts(2, 2, 1.0, pts, {a}).ok());
  // Duplicate codes.
  EXPECT_FALSE(CompleteHst::FromParts(2, 2, 1.0, pts, {a, a}).ok());
  // A third digit: bits below the last digit of a depth-2 code.
  const LeafCode deeper = LeafCodec(3, 2).Pack(LeafPath(3, 1));
  EXPECT_FALSE(CompleteHst::FromParts(2, 2, 1.0, pts, {a, deeper}).ok());
  // Digit out of arity range (arity 3 takes 2-bit fields).
  const LeafCode big = LeafCodec(2, 4).Pack({char16_t{3}, char16_t{0}});
  EXPECT_FALSE(CompleteHst::FromParts(2, 3, 1.0, pts, {a, big}).ok());
}

TEST(FromPartsTest, ReconstructedTreeObfuscatesAndMatches) {
  // A parsed tree supports the full client path: mechanism + obfuscation.
  CompleteHst original = BuildTree(13);
  auto parsed = ParseCompleteHst(SerializeCompleteHst(original));
  ASSERT_TRUE(parsed.ok());
  auto mech = HstMechanism::Build(*parsed, 0.5);
  ASSERT_TRUE(mech.ok());
  Rng rng(1);
  LeafPath z = mech->Obfuscate(parsed->leaf_of_point(0), &rng);
  EXPECT_EQ(z.size(), static_cast<size_t>(parsed->depth()));
}

}  // namespace
}  // namespace tbf
