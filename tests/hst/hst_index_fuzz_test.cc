// Randomized equivalence fuzz: the flat node-pool HstAvailabilityIndex and
// the map-based golden reference (hst_map_index.h) are driven through
// identical insert/remove/Nearest/NearestUniform/NearestK sequences and
// must agree on every answer — including draw-for-draw identical
// NearestUniform randomization (verified by running both off equally seeded
// Rngs and checking the streams stay in lockstep).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "hst/hst_index.h"
#include "hst/hst_map_index.h"

namespace tbf {
namespace {

struct Shape {
  int depth;
  int arity;
};

class HstIndexFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(HstIndexFuzzTest, FlatMatchesMapReference) {
  // {13, 32} needs 65 bits of code and {70, 2} 70: both past one word.
  const Shape shapes[] = {{3, 2},  {5, 3},   {4, 7},
                          {6, 2},  {2, 13},  {13, 32}, {70, 2}};
  for (const Shape& shape : shapes) {
    Rng driver(GetParam() * 1000003 + static_cast<uint64_t>(shape.depth) * 131 +
               static_cast<uint64_t>(shape.arity));
    HstAvailabilityIndex flat(shape.depth, shape.arity);
    HstAvailabilityMapIndex reference(shape.depth, shape.arity);
    const LeafCodec& codec = *flat.codec();

    std::vector<std::pair<LeafPath, int>> live;  // (leaf, id) currently inserted
    int next_id = 0;

    // Two tie-break rngs seeded identically: every NearestUniform call must
    // consume the same draws from both, or they drift and the test fails.
    Rng flat_rng(99);
    Rng ref_rng(99);

    for (int step = 0; step < 600; ++step) {
      const int op = static_cast<int>(driver.UniformInt(0, 9));
      if (op < 3 || live.empty()) {  // insert
        LeafPath leaf = RandomLeafPath(shape.depth, shape.arity, &driver);
        const int id = next_id++;
        flat.Insert(codec.Pack(leaf), id);
        reference.Insert(leaf, id);
        live.emplace_back(std::move(leaf), id);
      } else if (op < 5) {  // remove a random live item
        const size_t victim =
            static_cast<size_t>(driver.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        const auto [leaf, id] = live[victim];
        flat.Remove(codec.Pack(leaf), id);
        reference.Remove(leaf, id);
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      } else {  // query
        LeafPath query = RandomLeafPath(shape.depth, shape.arity, &driver);
        const LeafCode code = codec.Pack(query);
        ASSERT_EQ(flat.size(), reference.size());
        ASSERT_EQ(flat.Nearest(code), reference.Nearest(query))
            << "step " << step;

        auto flat_uniform = flat.NearestUniform(code, &flat_rng);
        auto ref_uniform = reference.NearestUniform(query, &ref_rng);
        ASSERT_EQ(flat_uniform, ref_uniform) << "step " << step;

        const size_t limit =
            static_cast<size_t>(driver.UniformInt(0, static_cast<int64_t>(live.size()) + 2));
        ASSERT_EQ(flat.NearestK(code, limit), reference.NearestK(query, limit))
            << "step " << step;
      }
    }

    // The uniform rngs must still be in lockstep: both engines consumed the
    // exact same number of draws with the same bounds.
    EXPECT_EQ(flat_rng.NextU64(), ref_rng.NextU64());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HstIndexFuzzTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace tbf
