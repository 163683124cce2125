#include "obs/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace tbf {
namespace obs {

namespace {

// Splits `name{a="b"}` into base name and the inner label list (empty when
// the name carries no label block).
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";  // exporters never emit NaN/inf
  // Integers print exactly; everything else with enough digits to
  // round-trip a double.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendSample(std::ostream& out, const std::string& base,
                  const std::string& labels, const std::string& extra_label,
                  const std::string& value) {
  out << base;
  if (!labels.empty() || !extra_label.empty()) {
    out << '{' << labels;
    if (!labels.empty() && !extra_label.empty()) out << ',';
    out << extra_label << '}';
  }
  out << ' ' << value << '\n';
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  std::string base, labels;
  std::string last_typed;  // emit one # TYPE line per base name
  for (const CounterSample& counter : snapshot.counters) {
    SplitLabels(counter.name, &base, &labels);
    if (base != last_typed) {
      out << "# TYPE " << base << " counter\n";
      last_typed = base;
    }
    AppendSample(out, base, labels, "", FormatDouble(counter.value));
  }
  for (const GaugeSample& gauge : snapshot.gauges) {
    SplitLabels(gauge.name, &base, &labels);
    if (base != last_typed) {
      out << "# TYPE " << base << " gauge\n";
      last_typed = base;
    }
    AppendSample(out, base, labels, "",
                 FormatDouble(static_cast<double>(gauge.value)));
  }
  for (const HistogramSample& histogram : snapshot.histograms) {
    SplitLabels(histogram.name, &base, &labels);
    if (base != last_typed) {
      out << "# TYPE " << base << " histogram\n";
      last_typed = base;
    }
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const uint64_t in_bucket = histogram.buckets[static_cast<size_t>(i)];
      if (in_bucket == 0) continue;
      cumulative += in_bucket;
      char le[64];
      std::snprintf(le, sizeof(le), "le=\"%" PRIu64 "\"",
                    Histogram::BucketUpper(i));
      char value[32];
      std::snprintf(value, sizeof(value), "%" PRIu64, cumulative);
      AppendSample(out, base + "_bucket", labels, le, value);
    }
    {
      char value[32];
      std::snprintf(value, sizeof(value), "%" PRIu64, histogram.count);
      AppendSample(out, base + "_bucket", labels, "le=\"+Inf\"", value);
    }
    AppendSample(out, base + "_sum", labels, "",
                 FormatDouble(static_cast<double>(histogram.sum)));
    {
      char value[32];
      std::snprintf(value, sizeof(value), "%" PRIu64, histogram.count);
      AppendSample(out, base + "_count", labels, "", value);
    }
  }
  return out.str();
}

}  // namespace obs
}  // namespace tbf
