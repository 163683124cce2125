#include "serve/shard_router.h"

#include "common/logging.h"

namespace tbf {

namespace {

// Smallest p with arity^p >= num_shards, capped at depth (callers verified
// Fits, so the cap is only reached when arity^depth == num_shards).
int MinimalPrefixDepth(int depth, int arity, int num_shards) {
  int p = 0;
  uint64_t values = 1;
  while (values < static_cast<uint64_t>(num_shards) && p < depth) {
    values *= static_cast<uint64_t>(arity);
    ++p;
  }
  return p;
}

}  // namespace

bool ShardRouter::Fits(int depth, int arity, int num_shards) {
  if (depth < 0 || arity < 2 || num_shards < 1) return false;
  uint64_t values = 1;
  for (int level = 0; level < depth; ++level) {
    if (values >= static_cast<uint64_t>(num_shards)) return true;
    if (values > UINT64_MAX / static_cast<uint64_t>(arity)) return true;
    values *= static_cast<uint64_t>(arity);
  }
  return values >= static_cast<uint64_t>(num_shards);
}

ShardRouter::ShardRouter(int depth, int arity, int num_shards)
    : depth_(depth),
      arity_(arity),
      num_shards_(num_shards),
      prefix_depth_(MinimalPrefixDepth(depth, arity, num_shards)) {
  TBF_CHECK(Fits(depth, arity, num_shards))
      << "num_shards=" << num_shards << " exceeds the " << arity << "^"
      << depth << " leaf prefixes";
}

}  // namespace tbf
