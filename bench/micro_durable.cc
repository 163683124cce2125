// Microbenchmarks of the durable layer (google-benchmark): the frame CRC,
// one group-commit journal append, and one checkpoint's encode and decode.
// Each row isolates a step of the durable replay's per-event and
// per-checkpoint work, so a change to the frame codec shows up here as a
// per-layer number next to perfbench's end-to-end one.
//
//   BM_Crc32/{64,4096,131072}  Crc32 over random bytes: a journal-record-
//                              sized buffer, a page, a checkpoint-sized one.
//   BM_WalAppend               WalWriter::Append of a task-arrival record
//                              (a ~100-byte payload, the durable replay's
//                              commonest record) under the default group
//                              commit; CPU time per record.
//   BM_CheckpointSerialize     SerializeReplayCheckpoint / ParseReplay-
//   BM_CheckpointParse         Checkpoint of a state shaped like the newest
//                              checkpoint of perfbench's `durable` replay
//                              (seed 1): 3,087 workers, 2,893 free index
//                              ids, 160 epoch spend rows, 24 counters,
//                              4 gauges, 4 histograms, a 6.4 KB RNG state.

#include <benchmark/benchmark.h>

#include "bench/json_main.h"

#include <cstdint>
#include <filesystem>
#include <string>

#include "common/frames.h"
#include "common/rng.h"
#include "serve/checkpoint.h"
#include "serve/wal.h"

namespace tbf {
namespace {

std::string RandomBytes(size_t n) {
  Rng rng(17);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(0, 255));
  return bytes;
}

void BM_Crc32(benchmark::State& state) {
  const std::string bytes = RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(131072);

WalRecord TaskRecord() {
  WalRecord rec;
  rec.kind = WalRecordKind::kTaskArrival;
  rec.event_index = 41234;
  rec.id = "t4-2001";
  rec.code = (LeafCode{0x3} << 64) | 0x0123456789ABCDEFull;
  rec.has_epsilon = true;
  rec.declared_epsilon = 0.6;
  rec.outcome.epsilon_charged = 0.6;
  rec.outcome.has_worker = true;
  rec.outcome.worker = "w6320";
  rec.outcome.tree_distance = 12.5;
  rec.task_slot = 20417;
  return rec;
}

void BM_WalAppend(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tbf_micro_durable_wal")
          .string();
  std::filesystem::remove_all(dir);
  WalIdentity identity;
  identity.trace_fingerprint = 0xC0FFEE11u;
  identity.epoch_seconds = 60.0;
  Result<std::unique_ptr<WalWriter>> opened =
      WalWriter::Open(dir, identity, WalFsyncPolicy::GroupCommit(), nullptr);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  WalWriter& writer = **opened;
  WalRecord rec = TaskRecord();
  const size_t payload = EncodeWalRecord(rec).size();
  uint64_t appended = 0;
  for (auto _ : state) {
    if (!writer.Append(&rec).ok()) {
      state.SkipWithError("append failed");
      break;
    }
    // Keep the directory small: a fresh segment every 64k records, the
    // old ones compacted (outside the timed loop).
    if (++appended % 65536 == 0) {
      state.PauseTiming();
      const bool ok =
          writer.Rotate().ok() && writer.CompactBelow(rec.lsn + 1).ok();
      state.ResumeTiming();
      if (!ok) {
        state.SkipWithError("rotate failed");
        break;
      }
    }
  }
  static_cast<void>(writer.Close());
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["payload_bytes"] = static_cast<double>(payload);
}
BENCHMARK(BM_WalAppend);

// Ids and values are drawn from fixed seeds; the row counts and string
// lengths are the `durable` replay's (see the file comment).
ReplayCheckpoint DurableShapedCheckpoint() {
  Rng rng(5);
  ReplayCheckpoint c;
  c.trace_fingerprint = 0x5EEDu;
  c.epoch_seconds = 60.0;
  c.server_seed = 1;
  c.obfuscation_seed = 2;
  c.next_event = 66362;
  c.arrivals_obfuscated = 63000;
  c.next_task_slot = 23000;
  c.wal_next_lsn = 66500;
  c.outcome_log_bytes = 1500000;
  c.epoch_rows = 150;
  c.server.assigned_tasks = 19000;
  c.server.rng_state = RandomBytes(6369);
  c.server.pool_size = 5980;
  for (int i = 0; i < 2893; ++i) {
    c.server.free_index_ids.push_back(
        static_cast<int>(rng.UniformInt(0, 5979)));
  }
  for (int i = 0; i < 3087; ++i) {
    ShardedServerState::Worker& w = c.server.workers.emplace_back();
    w.id = "w" + std::to_string(rng.UniformInt(0, 7999));
    w.code = (LeafCode{static_cast<uint64_t>(rng.UniformInt(0, 3))} << 64) |
             rng.NextU64();
    w.index_id = static_cast<int>(rng.UniformInt(0, 5979));
  }
  EpochBudgetLedger::State& ledger = c.server.ledger.emplace();
  ledger.epoch = 149;
  ledger.totals.epsilon_spent = 37000.2;
  ledger.totals.charges = 62000;
  for (int i = 0; i < 160; ++i) {
    ledger.epoch_spent.emplace_back(
        "t4-" + std::to_string(rng.UniformInt(0, 5000)), 0.6);
  }
  for (int i = 0; i < 24; ++i) {
    c.metrics.counters.push_back(
        {"tbf_serve_counter_" + std::to_string(i) + "_total", 1000.0 * i});
  }
  for (int i = 0; i < 4; ++i) {
    c.metrics.gauges.push_back({"tbf_serve_gauge_" + std::to_string(i), i});
  }
  for (int i = 0; i < 4; ++i) {
    obs::HistogramSample& h = c.metrics.histograms.emplace_back();
    h.name = "tbf_serve_histogram_" + std::to_string(i) + "_ns";
    h.count = 60000;
    h.sum = 123456789;
    for (size_t b = 0; b < h.buckets.size(); b += 3) h.buckets[b] = b;
  }
  return c;
}

void BM_CheckpointSerialize(benchmark::State& state) {
  const ReplayCheckpoint c = DurableShapedCheckpoint();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string blob = SerializeReplayCheckpoint(c);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointSerialize)->Unit(benchmark::kMicrosecond);

void BM_CheckpointParse(benchmark::State& state) {
  const std::string blob = SerializeReplayCheckpoint(DurableShapedCheckpoint());
  for (auto _ : state) {
    Result<ReplayCheckpoint> parsed = ParseReplayCheckpoint(blob);
    if (!parsed.ok()) {
      state.SkipWithError(parsed.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
  state.counters["checkpoint_bytes"] = static_cast<double>(blob.size());
}
BENCHMARK(BM_CheckpointParse)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tbf

TBF_BENCHMARK_JSON_MAIN("micro_durable")
