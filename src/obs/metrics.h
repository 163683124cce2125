// Flight-recorder metrics core: named counters, gauges and log-scale
// latency histograms behind a MetricRegistry.
//
// Design constraints (this is serve-path instrumentation, audited by the
// operator-new counter in bench/micro_metrics.cc):
//
//   * Zero allocations and no locks on the hot path. Registration
//     (FindOrCreate*) allocates and takes the registry mutex once, up
//     front; the returned handle is a stable pointer and every mutation on
//     it (Add / Set / Record) is a handful of relaxed atomic operations.
//   * Striped atomics. Each metric keeps kStripes cache-line-aligned
//     slots; a thread picks its stripe once (thread_local) and never
//     contends with neighbours on other cores. Stripes are merged only at
//     Snapshot() time.
//   * Fixed-bucket log-scale histograms. 64 power-of-two buckets over
//     nanoseconds: bucket 0 holds [0, 2), bucket i >= 1 holds
//     [2^i, 2^(i+1)). The bucket index is branchless —
//     63 - countl_zero(value | 1) — so Record costs one bit scan and two
//     relaxed fetch_adds. The ns..s latency range lands in buckets 0..30;
//     the remaining buckets make any uint64 recordable without clamping
//     branches.
//
// Two off switches:
//   * Runtime: SetMetricsEnabled(false) turns every mutation into a
//     single relaxed load + branch (used by the overhead bench to measure
//     the instrumented-vs-bare delta inside one binary).
//   * Compile time: -DTBF_METRICS_DISABLED (CMake -DTBF_METRICS=OFF)
//     compiles every mutation to an empty inline body; registries still
//     exist but snapshots are empty. No call site needs an #ifdef.
//
// Snapshot()/Delta() give interval semantics: counters and histograms
// subtract (monotone, so deltas are non-negative), gauges keep the newer
// value. The Prometheus exporter lives in obs/export.h.

#pragma once

#include <atomic>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tbf {
namespace obs {

/// \brief Runtime master switch (default on). Mutations on every handle
/// become near-free no-ops when disabled; snapshots still work (they
/// report whatever was recorded while enabled).
void SetMetricsEnabled(bool enabled);

namespace internal {

inline constexpr int kStripes = 8;  // power of two

extern std::atomic<bool> g_metrics_enabled;

inline bool Enabled() {
#ifdef TBF_METRICS_DISABLED
  return false;
#else
  return g_metrics_enabled.load(std::memory_order_relaxed);
#endif
}

/// Stripe of the calling thread: assigned round-robin on first use, so up
/// to kStripes concurrent writers never share a cache line.
int StripeIndex();

struct alignas(64) CounterStripe {
  std::atomic<uint64_t> value{0};
};

struct alignas(64) DoubleStripe {
  std::atomic<double> value{0.0};
};

}  // namespace internal

/// \brief Monotone uint64 counter.
class Counter {
 public:
  void Add(uint64_t n = 1) {
#ifndef TBF_METRICS_DISABLED
    if (!internal::Enabled()) return;
    stripes_[static_cast<size_t>(internal::StripeIndex())].value.fetch_add(
        n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  /// Sum over stripes (relaxed; exact once writers are quiescent).
  uint64_t Value() const;

 private:
  friend class MetricRegistry;
  Counter() = default;
  std::array<internal::CounterStripe, internal::kStripes> stripes_;
};

/// \brief Monotone double counter (epsilon spend and other real-valued
/// accumulations). fetch_add on atomic<double> is C++20.
class DoubleCounter {
 public:
  void Add(double v) {
#ifndef TBF_METRICS_DISABLED
    if (!internal::Enabled()) return;
    stripes_[static_cast<size_t>(internal::StripeIndex())].value.fetch_add(
        v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  double Value() const;

 private:
  friend class MetricRegistry;
  DoubleCounter() = default;
  std::array<internal::DoubleStripe, internal::kStripes> stripes_;
};

/// \brief Last-write-wins instantaneous value (pool sizes, epoch index).
class Gauge {
 public:
  void Set(int64_t v) {
#ifndef TBF_METRICS_DISABLED
    if (!internal::Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  void Add(int64_t delta) {
#ifndef TBF_METRICS_DISABLED
    if (!internal::Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed 64-bucket power-of-two histogram over uint64 values
/// (by convention nanoseconds). See the header comment for the bucket map.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Branchless bucket index: 0 for {0, 1}, else floor(log2(v)).
  static int BucketIndex(uint64_t v) {
    return 63 - std::countl_zero(v | 1);
  }

  /// Inclusive-exclusive bounds [Lower, Upper) of bucket i.
  static uint64_t BucketLower(int i) {
    return i == 0 ? 0 : (uint64_t{1} << i);
  }
  static uint64_t BucketUpper(int i) {
    return i >= 63 ? ~uint64_t{0} : (uint64_t{1} << (i + 1));
  }

  void Record(uint64_t value) {
#ifndef TBF_METRICS_DISABLED
    if (!internal::Enabled()) return;
    Stripe& s = stripes_[static_cast<size_t>(internal::StripeIndex())];
    s.buckets[static_cast<size_t>(BucketIndex(value))].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  /// Records `value` n times at O(1) cost (batch attribution, e.g. the
  /// per-report share of one batched obfuscation pass).
  void RecordN(uint64_t value, uint64_t n) {
#ifndef TBF_METRICS_DISABLED
    if (!internal::Enabled() || n == 0) return;
    Stripe& s = stripes_[static_cast<size_t>(internal::StripeIndex())];
    s.buckets[static_cast<size_t>(BucketIndex(value))].fetch_add(
        n, std::memory_order_relaxed);
    s.sum.fetch_add(value * n, std::memory_order_relaxed);
#else
    (void)value;
    (void)n;
#endif
  }

 private:
  friend class MetricRegistry;
  Histogram() = default;

  struct alignas(64) Stripe {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Stripe, internal::kStripes> stripes_;
};

// ------------------------------- snapshots --------------------------------

struct CounterSample {
  std::string name;
  double value = 0.0;  ///< uint64 counters are exact up to 2^53
};

struct GaugeSample {
  std::string name;
  int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, Histogram::kBuckets> buckets{};

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// covering bucket; 0 when empty. Power-of-two buckets bound the error
  /// by a factor of 2 — flight-recorder accuracy, not a benchmark timer.
  double Quantile(double q) const;

  /// Bucket-wise accumulation (commutative and associative).
  void MergeFrom(const HistogramSample& other);
};

/// \brief Point-in-time merged view of one registry; plain data, safe to
/// copy/ship across threads. Vectors are sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// this - earlier, matching by name: counters/histograms subtract,
  /// gauges keep this snapshot's value. Names absent from `earlier` pass
  /// through whole.
  MetricsSnapshot Delta(const MetricsSnapshot& earlier) const;

  /// nullptr when absent.
  const CounterSample* FindCounter(const std::string& name) const;
  const GaugeSample* FindGauge(const std::string& name) const;
  const HistogramSample* FindHistogram(const std::string& name) const;

  /// Counter value by name, or `fallback` when absent.
  double CounterValue(const std::string& name, double fallback = 0.0) const;
};

// ------------------------------- registry ---------------------------------

/// \brief Owner and namespace of metrics. Handles returned by
/// FindOrCreate* are valid for the registry's lifetime; calling
/// FindOrCreate* again with the same name returns the same handle.
///
/// Names follow Prometheus conventions: `tbf_serve_assigned_total` or,
/// with labels, `tbf_serve_assigned_total{shard="3"}` (the exporter
/// splits the label block). Creating the same name as two different
/// metric kinds is a programming error (CHECK-fails).
///
/// Thread-safe. One process-wide instance lives behind Global(); local
/// registries (e.g. one per replay run) isolate interval accounting from
/// unrelated traffic.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricRegistry* Global();

  Counter* FindOrCreateCounter(const std::string& name);
  DoubleCounter* FindOrCreateDoubleCounter(const std::string& name);
  Gauge* FindOrCreateGauge(const std::string& name);
  Histogram* FindOrCreateHistogram(const std::string& name);

  /// Merged view of every metric registered so far.
  MetricsSnapshot Snapshot() const;

  /// \brief Accumulates a saved snapshot into this registry (counters and
  /// histogram buckets add, gauges take the snapshot value) — the inverse
  /// of Snapshot(), used by checkpoint resume to carry pre-crash totals
  /// into a fresh registry. Metrics already registered keep their kind;
  /// unknown counter names are registered as Counter when the value is a
  /// non-negative integer and DoubleCounter otherwise, so restore AFTER
  /// constructing the components that register their own metrics. No-op
  /// while metrics are disabled.
  void Merge(const MetricsSnapshot& snapshot);

  /// Number of registered metrics (all kinds).
  size_t size() const;

 private:
  enum class Kind { kCounter, kDoubleCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<DoubleCounter> double_counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // sorted => snapshots sorted
};

/// \brief Builds a `name{label="value"}` metric name (registration-time
/// helper; never call on a hot path).
std::string LabeledName(const std::string& name, const std::string& label,
                        const std::string& value);

}  // namespace obs
}  // namespace tbf
