#include "obs/scoped_timer.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace tbf {
namespace obs {
namespace {

TEST(ScopedTimerTest, AccumulatesIntoSeconds) {
  double seconds = 0.0;
  {
    ScopedTimer timer(&seconds);
  }
  EXPECT_GE(seconds, 0.0);
  const double first = seconds;
  {
    ScopedTimer timer(&seconds);
  }
  EXPECT_GE(seconds, first);  // += semantics, not overwrite
}

TEST(ScopedTimerTest, StopIsIdempotent) {
  double seconds = 0.0;
  {
    ScopedTimer timer(&seconds);
    timer.Stop();
    const double after_stop = seconds;
    timer.Stop();
    EXPECT_EQ(seconds, after_stop);
  }  // destructor must not add a second sample either
}

TEST(ScopedTimerTest, SecondsSinkWorksWithMetricsDisabled) {
  // The seconds accumulator is functional timing (replay reports/BENCH
  // JSON), so it must survive both off switches.
  SetMetricsEnabled(false);
  double seconds = 0.0;
  {
    ScopedTimer timer(&seconds);
    // Enough work that any realistic steady_clock observes elapsed > 0.
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 200000; ++i) sink = sink + i;
  }
  SetMetricsEnabled(true);
  EXPECT_GT(seconds, 0.0);
}

#ifndef TBF_METRICS_DISABLED

TEST(ScopedTimerTest, RecordsIntoHistogram) {
  MetricRegistry registry;
  Histogram* hist = registry.FindOrCreateHistogram("scope_ns");
  double seconds = 0.0;
  {
    ScopedTimer timer(&seconds, hist);
  }
  {
    ScopedTimer timer(hist);
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.FindHistogram("scope_ns")->count, 2u);
}

TEST(ScopedTimerTest, HistogramOnlyTimerDisarmsWhenMetricsOff) {
  MetricRegistry registry;
  Histogram* hist = registry.FindOrCreateHistogram("scope_ns");
  SetMetricsEnabled(false);
  {
    ScopedTimer timer(hist);
  }
  SetMetricsEnabled(true);
  EXPECT_EQ(registry.Snapshot().FindHistogram("scope_ns")->count, 0u);
}

#endif  // TBF_METRICS_DISABLED

}  // namespace
}  // namespace obs
}  // namespace tbf
