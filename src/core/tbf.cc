#include "core/tbf.h"

#include <array>

#include "common/timer.h"

namespace tbf {

Result<TbfFramework> TbfFramework::Build(std::vector<Point> predefined_points,
                                         const Metric& metric, Rng* rng,
                                         const TbfOptions& options) {
  TBF_ASSIGN_OR_RETURN(
      CompleteHst tree,
      CompleteHst::BuildFromPoints(predefined_points, metric, rng));
  return FromTree(std::make_shared<const CompleteHst>(std::move(tree)),
                  options);
}

Result<TbfFramework> TbfFramework::FromTree(
    std::shared_ptr<const CompleteHst> tree, const TbfOptions& options) {
  if (tree == nullptr) return Status::InvalidArgument("tree must not be null");
  TbfFramework framework;
  framework.tree_ = std::move(tree);
  TBF_ASSIGN_OR_RETURN(HstMechanism mechanism,
                       HstMechanism::Build(*framework.tree_, options.epsilon));
  framework.mechanism_ = std::make_shared<const HstMechanism>(std::move(mechanism));
  return framework;
}

std::vector<LeafCode> TbfFramework::ObfuscateCodes(
    const std::vector<Point>& locations, const Rng& stream, ThreadPool* pool,
    BatchStageTimings* timings, uint64_t fork_offset,
    SamplerKind sampler) const {
  const size_t n = locations.size();
  // Stage 1: nearest-predefined-point mapping straight to point ids (the
  // packed code per id is precomputed on the tree).
  std::vector<int32_t> mapped(n, 0);
  WallTimer timer;
  pool->ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      mapped[i] = tree_->MapToNearestPoint(locations[i]);
    }
  });
  if (timings) timings->map_seconds += timer.ElapsedSeconds();

  // Stage 2: mechanism draws, one ForkAt stream per item, opened four at a
  // time (ForkAt4 yields the same streams) and singly at a chunk's tail.
  std::vector<LeafCode> reported(n);
  timer.Restart();
  pool->ParallelFor(n, [&](size_t begin, size_t end) {
    auto obfuscate = [&](size_t i, Rng* item_rng) {
      reported[i] = mechanism_->ObfuscateCodeWith(
          tree_->leaf_code_of_point(mapped[i]), item_rng, sampler);
    };
    size_t i = begin;
    for (; end - i >= 4; i += 4) {
      std::array<Rng, 4> item_rngs = stream.ForkAt4(fork_offset + i);
      for (size_t j = 0; j < 4; ++j) obfuscate(i + j, &item_rngs[j]);
    }
    for (; i < end; ++i) {
      Rng item_rng = stream.ForkAt(fork_offset + i);
      obfuscate(i, &item_rng);
    }
  });
  if (timings) timings->obfuscate_seconds += timer.ElapsedSeconds();
  return reported;
}

}  // namespace tbf
