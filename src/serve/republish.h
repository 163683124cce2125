// Zero-downtime republish: the report type of
// ShardedTbfServer::Republish (serve/sharded_server.h), which atomically
// swaps the engine's published tree while it keeps serving.
//
// Lifecycle (docs/ROBUSTNESS.md has the full walkthrough):
//
//   1. Build (or ReadHstSnapshotFile) the new tree in the background —
//      it must have the published shape (same depth and arity), since
//      live reports, packed codes and shard routing are all expressed in
//      the published geometry.
//   2. Phase A — re-key: every live worker's stored report is translated
//      old tree -> new tree in batches of 1024 workers, *outside* the
//      engine's locks (traffic proceeds). A report on a real leaf
//      follows its predefined point through MapToNearestLeafCode; a
//      report on a fake leaf (obfuscation lands there) keeps its digits
//      verbatim — which makes republishing a bit-identical tree
//      draw-for-draw equivalent to not republishing.
//   3. Phase B — flip: all shard mutexes + the pool are taken, the
//      per-shard availability indexes are rebuilt on the new keys
//      (workers that churned since phase A are re-keyed inline), and the
//      new tree becomes visible to every subsequent operation. No
//      arrival, task or departure is dropped: operations either complete
//      against the old tree before the flip or the new one after it.
//
// Crash safety: fault sites "republish.rekey" (hit-indexed by batch
// ordinal) and "republish.swap" (hit-indexed by the current tree epoch,
// firing before any mutation) turn an injected failure into a clean
// abort — the engine stays exactly as it was, counted in
// tbf_republish_aborted_total. A resumed replay runs no republish:
// RestoreState installs the checkpoint's tree at its epoch.

#pragma once

#include <cstddef>
#include <cstdint>

namespace tbf {

/// \brief What one successful Republish did.
struct RepublishReport {
  /// The engine's tree epoch after the swap (1 for the first republish).
  uint64_t tree_epoch = 0;

  /// Live workers carried across the swap (= real_remapped + fake_kept).
  size_t workers_rekeyed = 0;
  /// Reports on real leaves, remapped via MapToNearestLeafCode.
  size_t real_remapped = 0;
  /// Reports on fake leaves, digits kept verbatim.
  size_t fake_kept = 0;
  /// Workers whose re-keyed report moved them to a different shard.
  size_t relocated = 0;

  /// Shards whose availability index was rebuilt (= num_shards).
  int shards_swapped = 0;

  /// Phase A wall time (outside the locks; traffic proceeds).
  double rekey_seconds = 0.0;
  /// Phase B wall time (all locks held; the only pause traffic sees).
  double swap_seconds = 0.0;
};

}  // namespace tbf
