#include "obs/metrics.h"

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"

namespace tbf {
namespace obs {
namespace {

// ------------------------- structure (always on) --------------------------

TEST(HistogramBucketsTest, IndexMatchesPowerOfTwoRanges) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 1);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(1023), 9);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), 63);
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLower(i)), i) << i;
    if (i < 63) {
      EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpper(i) - 1), i) << i;
    }
  }
}

TEST(LabeledNameTest, FormatsPrometheusLabel) {
  EXPECT_EQ(LabeledName("tbf_serve_tasks_total", "shard", "3"),
            "tbf_serve_tasks_total{shard=\"3\"}");
}

TEST(MetricRegistryTest, FindOrCreateReturnsStableHandles) {
  MetricRegistry registry;
  Counter* a = registry.FindOrCreateCounter("a_total");
  EXPECT_EQ(registry.FindOrCreateCounter("a_total"), a);
  EXPECT_NE(registry.FindOrCreateCounter("b_total"), a);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricRegistryTest, EmptyRegistrySnapshotsEmpty) {
  MetricRegistry registry;
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

// --------------------- recording (need live mutations) --------------------
#ifndef TBF_METRICS_DISABLED

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  MetricRegistry registry;
  Counter* counter = registry.FindOrCreateCounter("hits_total");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(DoubleCounterTest, ConcurrentAddsSumExactly) {
  MetricRegistry registry;
  DoubleCounter* counter = registry.FindOrCreateDoubleCounter("eps_total");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Add(0.5);
    });
  }
  for (std::thread& t : threads) t.join();
  // 0.5 is exactly representable, so the sum is exact despite fp addition.
  EXPECT_DOUBLE_EQ(counter->Value(), kThreads * kPerThread * 0.5);
}

TEST(HistogramTest, ConcurrentRecordsCountExactly) {
  MetricRegistry registry;
  Histogram* hist = registry.FindOrCreateHistogram("lat_ns");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist->Record(static_cast<uint64_t>(t) * 1000 + 7);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSample* sample = snapshot.FindHistogram("lat_ns");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, kThreads * kPerThread);
}

TEST(HistogramTest, RecordNMatchesRepeatedRecord) {
  MetricRegistry registry;
  Histogram* one = registry.FindOrCreateHistogram("one_ns");
  Histogram* bulk = registry.FindOrCreateHistogram("bulk_ns");
  for (int i = 0; i < 37; ++i) one->Record(900);
  bulk->RecordN(900, 37);
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSample* a = snapshot.FindHistogram("one_ns");
  const HistogramSample* b = snapshot.FindHistogram("bulk_ns");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->count, b->count);
  EXPECT_EQ(a->sum, b->sum);
  EXPECT_EQ(a->buckets, b->buckets);
}

TEST(HistogramTest, MergeIsAssociative) {
  MetricRegistry registry;
  Histogram* h1 = registry.FindOrCreateHistogram("h1");
  Histogram* h2 = registry.FindOrCreateHistogram("h2");
  Histogram* h3 = registry.FindOrCreateHistogram("h3");
  for (uint64_t v = 1; v < 2000; v += 13) h1->Record(v);
  for (uint64_t v = 1; v < 90000; v += 997) h2->Record(v);
  h3->Record(0);
  h3->Record(~uint64_t{0});
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSample a = *snapshot.FindHistogram("h1");
  const HistogramSample b = *snapshot.FindHistogram("h2");
  const HistogramSample c = *snapshot.FindHistogram("h3");

  HistogramSample ab_c = a;
  ab_c.MergeFrom(b);
  ab_c.MergeFrom(c);
  HistogramSample bc = b;
  bc.MergeFrom(c);
  HistogramSample a_bc = a;
  a_bc.MergeFrom(bc);

  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, a_bc.sum);
  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
}

TEST(HistogramTest, QuantileStaysInsideCoveringBucket) {
  MetricRegistry registry;
  Histogram* hist = registry.FindOrCreateHistogram("q_ns");
  // 100 values in bucket [1024, 2048), 1 outlier in [65536, 131072).
  for (int i = 0; i < 100; ++i) hist->Record(1500);
  hist->Record(100000);
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSample* sample = snapshot.FindHistogram("q_ns");
  ASSERT_NE(sample, nullptr);
  const double p50 = sample->Quantile(0.50);
  EXPECT_GE(p50, 1024.0);
  EXPECT_LT(p50, 2048.0);
  const double p100 = sample->Quantile(1.0);
  EXPECT_GE(p100, 65536.0);
  EXPECT_LE(p100, 131072.0);
  EXPECT_EQ(sample->Quantile(0.5), p50);
  EXPECT_EQ(HistogramSample{}.Quantile(0.5), 0.0);
}

TEST(GaugeTest, SetAndAdd) {
  MetricRegistry registry;
  Gauge* gauge = registry.FindOrCreateGauge("pool");
  gauge->Set(10);
  gauge->Add(-3);
  EXPECT_EQ(gauge->Value(), 7);
}

TEST(SnapshotTest, DeltaOfMonotoneSeriesIsNonNegative) {
  MetricRegistry registry;
  Counter* counter = registry.FindOrCreateCounter("c_total");
  Histogram* hist = registry.FindOrCreateHistogram("h_ns");
  Gauge* gauge = registry.FindOrCreateGauge("g");
  counter->Add(5);
  hist->Record(100);
  gauge->Set(42);
  MetricsSnapshot earlier = registry.Snapshot();
  counter->Add(3);
  hist->Record(100);
  hist->Record(4000);
  gauge->Set(17);
  MetricsSnapshot later = registry.Snapshot();

  MetricsSnapshot delta = later.Delta(earlier);
  EXPECT_DOUBLE_EQ(delta.CounterValue("c_total"), 3.0);
  const HistogramSample* dh = delta.FindHistogram("h_ns");
  ASSERT_NE(dh, nullptr);
  EXPECT_EQ(dh->count, 2u);
  for (uint64_t bucket : dh->buckets) {
    EXPECT_GE(bucket, 0u);  // uint64, but pin the non-negative contract
  }
  // Gauges are instantaneous: delta keeps the newer value.
  const GaugeSample* dg = delta.FindGauge("g");
  ASSERT_NE(dg, nullptr);
  EXPECT_EQ(dg->value, 17);
  // Self-delta is all-zero.
  MetricsSnapshot zero = later.Delta(later);
  EXPECT_DOUBLE_EQ(zero.CounterValue("c_total"), 0.0);
  EXPECT_EQ(zero.FindHistogram("h_ns")->count, 0u);
}

TEST(SnapshotTest, RuntimeDisableStopsRecording) {
  MetricRegistry registry;
  Counter* counter = registry.FindOrCreateCounter("c_total");
  counter->Add(2);
  SetMetricsEnabled(false);
  counter->Add(100);
  SetMetricsEnabled(true);
  counter->Add(1);
  EXPECT_EQ(counter->Value(), 3u);
}

// ----------------------------- exporters ----------------------------------

// Minimal Prometheus text parser: every non-comment line must be
// `name{labels} value` or `name value`; returns fully-labeled name -> value.
std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> parsed;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# TYPE ", 0) == 0 ||
                  line.rfind("# HELP ", 0) == 0)
          << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    size_t consumed = 0;
    const double value = std::stod(line.substr(space + 1), &consumed);
    EXPECT_EQ(consumed, line.size() - space - 1) << line;
    EXPECT_TRUE(parsed.emplace(name, value).second)
        << "duplicate sample: " << name;
  }
  return parsed;
}

TEST(ExportTest, PrometheusRoundTripsThroughParser) {
  MetricRegistry registry;
  registry.FindOrCreateCounter("tbf_hits_total")->Add(12);
  registry.FindOrCreateCounter(LabeledName("tbf_tasks_total", "shard", "0"))
      ->Add(3);
  registry.FindOrCreateCounter(LabeledName("tbf_tasks_total", "shard", "1"))
      ->Add(4);
  registry.FindOrCreateGauge("tbf_pool")->Set(-5);
  Histogram* hist = registry.FindOrCreateHistogram("tbf_lat_ns");
  hist->Record(3);      // bucket [2,4) -> le="4"
  hist->Record(3);
  hist->Record(1000);   // bucket [512,1024) -> le="1024"
  MetricsSnapshot snapshot = registry.Snapshot();

  std::map<std::string, double> parsed =
      ParsePrometheus(ToPrometheusText(snapshot));
  EXPECT_DOUBLE_EQ(parsed.at("tbf_hits_total"), 12.0);
  EXPECT_DOUBLE_EQ(parsed.at("tbf_tasks_total{shard=\"0\"}"), 3.0);
  EXPECT_DOUBLE_EQ(parsed.at("tbf_tasks_total{shard=\"1\"}"), 4.0);
  EXPECT_DOUBLE_EQ(parsed.at("tbf_pool"), -5.0);
  EXPECT_DOUBLE_EQ(parsed.at("tbf_lat_ns_count"), 3.0);
  EXPECT_DOUBLE_EQ(parsed.at("tbf_lat_ns_sum"), 1006.0);
  // Buckets are cumulative and close with +Inf == count.
  EXPECT_DOUBLE_EQ(parsed.at("tbf_lat_ns_bucket{le=\"4\"}"), 2.0);
  EXPECT_DOUBLE_EQ(parsed.at("tbf_lat_ns_bucket{le=\"1024\"}"), 3.0);
  EXPECT_DOUBLE_EQ(parsed.at("tbf_lat_ns_bucket{le=\"+Inf\"}"), 3.0);
}

#endif  // TBF_METRICS_DISABLED

}  // namespace
}  // namespace obs
}  // namespace tbf
