// One validity rule for leaf codes from outside: LeafCodec::Validate. The
// same bad codes go to every entry point that accepts a code — the codec,
// CompleteHst::FromParts, the snapshot parser (through a CRC-valid leaf
// record) and ShardedTbfServer::RegisterWorker. Each must refuse with
// InvalidArgument; none may abort.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/frames.h"
#include "hst/snapshot.h"
#include "serve/sharded_server.h"

namespace tbf {
namespace {

struct BadCodeCase {
  const char* name;
  int depth;
  int arity;
  // A bad code, built from the valid code of point 0.
  LeafCode (*corrupt)(const LeafCodec& codec, LeafCode valid);
  const char* why;
};

const BadCodeCase kCases[] = {
    {"stray low bit", 3, 4,
     [](const LeafCodec&, LeafCode valid) { return valid | 1; },
     "code has bits outside the shape"},
    {"digit 3 on arity 3", 2, 3,
     [](const LeafCodec& codec, LeafCode valid) {
       return codec.WithDigit(valid, 0, 3);
     },
     "digit 3 at position 0 exceeds the published arity 3"},
    // 13 x 5-bit digits = 65 bits: the first digit sits in the high word,
    // the last one straddles into the low word.
    {"high-word digit on 13x31 (65 bits)", 13, 31,
     [](const LeafCodec& codec, LeafCode valid) {
       return codec.WithDigit(valid, 0, 31);
     },
     "digit 31 at position 0 exceeds the published arity 31"},
};

// Two points: one on the all-zero leaf, one a digit away at the root.
CompleteHst TwoPointTree(int depth, int arity) {
  const LeafCodec codec(depth, arity);
  auto tree = CompleteHst::FromParts(depth, arity, 2.0, {{0, 0}, {10, 0}},
                                     {0, codec.WithDigit(0, 0, 1)});
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).MoveValueUnsafe();
}

// The snapshot of `tree` with leaf row `row` replaced by `code`, every
// frame re-CRC'd so only the code itself is wrong.
std::string SnapshotWithLeaf(const CompleteHst& tree, size_t row,
                             LeafCode code) {
  std::vector<std::string> records;
  const FrameWalk walk = WalkFrames(
      SerializeHstSnapshot(tree), [&](std::string_view payload) {
        records.emplace_back(payload);
        return Status::OK();
      });
  EXPECT_FALSE(walk.bad) << walk.bad_detail;
  EXPECT_EQ(records.size(), 4u);  // header, points, leaves, end
  std::string& leaves = records[2];
  std::string patched;
  {
    FieldWriter io(&patched);
    io(code);
  }
  leaves.replace(1 + 16 * row, 16, patched);
  std::string out;
  for (const std::string& record : records) AppendFrame(&out, record);
  return out;
}

void ExpectRefused(const Status& status, const std::string& why) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find(why), std::string::npos) << status;
}

TEST(BadLeafCodeTest, EveryEntryPointRefusesTheSameCodes) {
  for (const BadCodeCase& c : kCases) {
    SCOPED_TRACE(c.name);
    const CompleteHst tree = TwoPointTree(c.depth, c.arity);
    const LeafCodec& codec = *tree.codec();
    const LeafCode bad = c.corrupt(codec, tree.leaf_code_of_point(0));

    ExpectRefused(codec.Validate(bad), c.why);

    auto parts = CompleteHst::FromParts(c.depth, c.arity, 2.0,
                                        {{0, 0}, {10, 0}},
                                        {tree.leaf_code_of_point(1), bad});
    ASSERT_FALSE(parts.ok());
    ExpectRefused(parts.status(), std::string("row 1: ") + c.why);

    auto parsed = ParseHstSnapshot(SnapshotWithLeaf(tree, 0, bad));
    ASSERT_FALSE(parsed.ok());
    ExpectRefused(parsed.status(), std::string("snapshot: row 0: ") + c.why);

    auto server = ShardedTbfServer::Create(
        std::make_shared<const CompleteHst>(TwoPointTree(c.depth, c.arity)));
    ASSERT_TRUE(server.ok()) << server.status();
    ExpectRefused((*server)->RegisterWorker("w", bad), c.why);
    EXPECT_EQ((*server)->available_workers(), 0u);
  }
}

}  // namespace
}  // namespace tbf
