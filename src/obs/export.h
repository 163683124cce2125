// Snapshot exporter: Prometheus text exposition format.
//
// It consumes a MetricsSnapshot (plain data), so it never touches
// registry locks or the hot path; call it after a run.

#pragma once

#include <string>

#include "obs/metrics.h"

namespace tbf {
namespace obs {

/// \brief Prometheus text exposition (version 0.0.4).
///
/// Counters and gauges emit one sample line each; histograms emit
/// cumulative `_bucket{le="..."}` lines for every non-empty bucket plus
/// the closing `le="+Inf"`, `_sum` and `_count`. Registry names that
/// carry a `{label="value"}` block keep those labels, merged with `le`.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace tbf
