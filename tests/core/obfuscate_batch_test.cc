// TbfFramework::ObfuscateCodes against its per-item definition: item i is
// the sampler run on stream.ForkAt(fork_offset + i) from the leaf of the
// nearest published point. The batch maps through the lattice (or the k-d
// tree outside it) and opens its streams four at a time; the reference
// maps through an independent k-d tree and opens one ForkAt per item.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/tbf.h"
#include "geo/grid.h"
#include "geo/kdtree.h"

namespace tbf {
namespace {

constexpr SamplerKind kSamplers[] = {SamplerKind::kWalk,
                                     SamplerKind::kOblivious};

std::shared_ptr<const CompleteHst> PublishGrid() {
  auto grid = UniformGridPoints(BBox::Square(200), 32);
  EXPECT_TRUE(grid.ok()) << grid.status();
  Rng rng(9);
  auto tree = CompleteHst::BuildFromPoints(*grid, EuclideanMetric(), &rng);
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::make_shared<const CompleteHst>(std::move(tree).MoveValueUnsafe());
}

// The published tree as a client reloads it: FromParts defers both the
// lattice check and the k-d tree to the first mapping call.
std::shared_ptr<const CompleteHst> Reload(const CompleteHst& tree) {
  std::vector<LeafCode> codes;
  for (int p = 0; p < tree.num_points(); ++p) {
    codes.push_back(tree.leaf_code_of_point(p));
  }
  auto out = CompleteHst::FromParts(tree.depth(), tree.arity(), tree.scale(),
                                    tree.points(), std::move(codes));
  EXPECT_TRUE(out.ok()) << out.status();
  return std::make_shared<const CompleteHst>(std::move(out).MoveValueUnsafe());
}

// Locations in and around the grid's box; about one in eight lies outside
// it, so the k-d tree fallback runs in every batch of more than a few.
std::vector<Point> Locations(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> out;
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(rng.Uniform(-15, 215), rng.Uniform(-15, 215));
  }
  return out;
}

std::vector<LeafCode> PerItem(const TbfFramework& framework,
                              const std::vector<Point>& locations,
                              const Rng& stream, uint64_t fork_offset,
                              SamplerKind kind) {
  const KdTree oracle(framework.tree().points());
  std::vector<LeafCode> out;
  for (size_t i = 0; i < locations.size(); ++i) {
    Rng item = stream.ForkAt(fork_offset + i);
    const int point = oracle.NearestNeighbor(locations[i]);
    out.push_back(framework.mechanism().ObfuscateCodeWith(
        framework.tree().leaf_code_of_point(point), &item, kind));
  }
  return out;
}

TEST(ObfuscateBatchTest, BatchEqualsPerItemForkAtOverAnIndependentKdTree) {
  const std::shared_ptr<const CompleteHst> published = PublishGrid();
  const Rng stream(2024);
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    // A reloaded tree per pool: its first batch has every thread race into
    // the lazy lattice check and the lazy k-d tree build.
    for (bool reloaded : {false, true}) {
      auto framework =
          TbfFramework::FromTree(reloaded ? Reload(*published) : published);
      ASSERT_TRUE(framework.ok()) << framework.status();
      for (size_t n : {size_t{1023}, size_t{0}, size_t{1}, size_t{3}, size_t{4},
                       size_t{5}}) {
        const std::vector<Point> locations = Locations(n, n + 1);
        for (uint64_t offset : {uint64_t{0}, uint64_t{3}}) {
          for (SamplerKind kind : kSamplers) {
            SCOPED_TRACE("threads " + std::to_string(threads) + " reloaded " +
                         std::to_string(reloaded) + " n " + std::to_string(n) +
                         " offset " + std::to_string(offset) + " sampler " +
                         std::to_string(static_cast<int>(kind)));
            const std::vector<LeafCode> batch = framework->ObfuscateCodes(
                locations, stream, &pool, nullptr, offset, kind);
            ASSERT_EQ(batch, PerItem(*framework, locations, stream, offset, kind));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace tbf
