// Human-readable formatting of latencies. Distributions themselves live in
// obs::Histogram (src/obs/metrics.h).
#pragma once

#include <string>

namespace scalla::util {

/// Formats nanoseconds with an adaptive unit ("312ns", "41.2us", "1.50s").
std::string FormatNanos(double ns);

}  // namespace scalla::util
