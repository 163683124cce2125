#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace tbf {
namespace obs {

namespace internal {

std::atomic<bool> g_metrics_enabled{true};

int StripeIndex() {
  static std::atomic<int> next{0};
  thread_local const int stripe =
      next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
  return stripe;
}

}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const internal::CounterStripe& s : stripes_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

double DoubleCounter::Value() const {
  double total = 0.0;
  for (const internal::DoubleStripe& s : stripes_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

double HistogramSample::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based), then walk the buckets.
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const uint64_t in_bucket = buckets[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= rank) {
      const double lower = static_cast<double>(Histogram::BucketLower(i));
      const double upper = static_cast<double>(Histogram::BucketUpper(i));
      const double fraction =
          std::clamp((rank - before) / static_cast<double>(in_bucket), 0.0, 1.0);
      return lower + fraction * (upper - lower);
    }
  }
  return static_cast<double>(
      Histogram::BucketUpper(Histogram::kBuckets - 1));  // unreachable
}

void HistogramSample::MergeFrom(const HistogramSample& other) {
  count += other.count;
  sum += other.sum;
  for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
}

namespace {

template <typename Sample>
const Sample* FindByName(const std::vector<Sample>& samples,
                         const std::string& name) {
  auto it = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const Sample& s, const std::string& n) { return s.name < n; });
  return it != samples.end() && it->name == name ? &*it : nullptr;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  delta.counters.reserve(counters.size());
  for (const CounterSample& now : counters) {
    CounterSample d = now;
    if (const CounterSample* was = FindByName(earlier.counters, now.name)) {
      d.value -= was->value;
    }
    delta.counters.push_back(std::move(d));
  }
  delta.gauges = gauges;  // instantaneous: the newer value is the delta view
  delta.histograms.reserve(histograms.size());
  for (const HistogramSample& now : histograms) {
    HistogramSample d = now;
    if (const HistogramSample* was =
            FindByName(earlier.histograms, now.name)) {
      d.count -= was->count;
      d.sum -= was->sum;
      for (size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] -= was->buckets[i];
      }
    }
    delta.histograms.push_back(std::move(d));
  }
  return delta;
}

const CounterSample* MetricsSnapshot::FindCounter(
    const std::string& name) const {
  return FindByName(counters, name);
}

const GaugeSample* MetricsSnapshot::FindGauge(const std::string& name) const {
  return FindByName(gauges, name);
}

const HistogramSample* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  return FindByName(histograms, name);
}

double MetricsSnapshot::CounterValue(const std::string& name,
                                     double fallback) const {
  const CounterSample* sample = FindCounter(name);
  return sample ? sample->value : fallback;
}

MetricRegistry* MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // never destroyed
  return registry;
}

MetricRegistry::Entry* MetricRegistry::FindOrCreate(const std::string& name,
                                                    Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    TBF_CHECK(it->second.kind == kind)
        << "metric '" << name << "' re-registered as a different kind";
    return &it->second;
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry.counter = std::unique_ptr<Counter>(new Counter());
      break;
    case Kind::kDoubleCounter:
      entry.double_counter = std::unique_ptr<DoubleCounter>(new DoubleCounter());
      break;
    case Kind::kGauge:
      entry.gauge = std::unique_ptr<Gauge>(new Gauge());
      break;
    case Kind::kHistogram:
      entry.histogram = std::unique_ptr<Histogram>(new Histogram());
      break;
  }
  return &entries_.emplace(name, std::move(entry)).first->second;
}

Counter* MetricRegistry::FindOrCreateCounter(const std::string& name) {
  return FindOrCreate(name, Kind::kCounter)->counter.get();
}

DoubleCounter* MetricRegistry::FindOrCreateDoubleCounter(
    const std::string& name) {
  return FindOrCreate(name, Kind::kDoubleCounter)->double_counter.get();
}

Gauge* MetricRegistry::FindOrCreateGauge(const std::string& name) {
  return FindOrCreate(name, Kind::kGauge)->gauge.get();
}

Histogram* MetricRegistry::FindOrCreateHistogram(const std::string& name) {
  return FindOrCreate(name, Kind::kHistogram)->histogram.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : entries_) {  // map order => sorted by name
    switch (entry.kind) {
      case Kind::kCounter:
        snapshot.counters.push_back(
            {name, static_cast<double>(entry.counter->Value())});
        break;
      case Kind::kDoubleCounter:
        snapshot.counters.push_back({name, entry.double_counter->Value()});
        break;
      case Kind::kGauge:
        snapshot.gauges.push_back({name, entry.gauge->Value()});
        break;
      case Kind::kHistogram: {
        HistogramSample sample;
        sample.name = name;
        for (const Histogram::Stripe& stripe : entry.histogram->stripes_) {
          for (int i = 0; i < Histogram::kBuckets; ++i) {
            const uint64_t n =
                stripe.buckets[static_cast<size_t>(i)].load(
                    std::memory_order_relaxed);
            sample.buckets[static_cast<size_t>(i)] += n;
            sample.count += n;
          }
          sample.sum += stripe.sum.load(std::memory_order_relaxed);
        }
        snapshot.histograms.push_back(std::move(sample));
        break;
      }
    }
  }
  return snapshot;
}

void MetricRegistry::Merge(const MetricsSnapshot& snapshot) {
  if (!internal::Enabled()) return;
  for (const CounterSample& sample : snapshot.counters) {
    Kind kind;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(sample.name);
      if (it != entries_.end()) {
        kind = it->second.kind;
      } else {
        const bool integral = sample.value >= 0.0 &&
                              sample.value == std::floor(sample.value) &&
                              sample.value <= 0x1.0p53;
        kind = integral ? Kind::kCounter : Kind::kDoubleCounter;
      }
    }
    if (kind == Kind::kCounter) {
      FindOrCreateCounter(sample.name)
          ->Add(static_cast<uint64_t>(sample.value));
    } else if (kind == Kind::kDoubleCounter) {
      FindOrCreateDoubleCounter(sample.name)->Add(sample.value);
    }
    // A counter sample colliding with a gauge/histogram name cannot come
    // from Snapshot(); drop it rather than CHECK-fail on corrupt input.
  }
  for (const GaugeSample& sample : snapshot.gauges) {
    FindOrCreateGauge(sample.name)->Set(sample.value);
  }
  for (const HistogramSample& sample : snapshot.histograms) {
    Histogram* histogram = FindOrCreateHistogram(sample.name);
    // Buckets land in stripe 0 (friend access): the public Record API
    // cannot reproduce an arbitrary (bucket, sum) pair exactly.
    Histogram::Stripe& stripe = histogram->stripes_[0];
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      stripe.buckets[static_cast<size_t>(i)].fetch_add(
          sample.buckets[static_cast<size_t>(i)], std::memory_order_relaxed);
    }
    stripe.sum.fetch_add(sample.sum, std::memory_order_relaxed);
  }
}

size_t MetricRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string LabeledName(const std::string& name, const std::string& label,
                        const std::string& value) {
  return name + "{" + label + "=\"" + value + "\"}";
}

}  // namespace obs
}  // namespace tbf
