// Exact sample quantiles for the benchmark driver. Every latency the
// benchmark reports is an order statistic of the raw per-operation samples
// (nearest-rank definition), never an interpolation between histogram
// buckets, and a quantile is only reported when the sample holds at least
// ten observations beyond it: p50 needs 20 samples, p99 needs 1000.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples needed before quantile `q` (0 < q < 1) is reported: the smallest
/// n with at least ten samples above the q-th order statistic, i.e.
/// ceil(10 / (1 - q)) — 20 for the median, 1000 for p99.
inline size_t MinSamplesForQuantile(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

/// Nearest-rank quantile: the ceil(q * n)-th smallest sample (1-based),
/// clamped to [1, n]. Reorders `samples` (selection, O(n)); nullopt on an
/// empty sample.
inline std::optional<double> NearestRankQuantile(std::vector<double>* samples,
                                                 double q) {
  const size_t n = samples->size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  auto nth = samples->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples->begin(), nth, samples->end());
  return *nth;
}

/// The quantile as the benchmark reports it: nullopt when the sample is
/// below MinSamplesForQuantile(q).
inline std::optional<double> ReportedQuantile(std::vector<double> samples,
                                              double q) {
  if (samples.size() < MinSamplesForQuantile(q)) return std::nullopt;
  return NearestRankQuantile(&samples, q);
}

}  // namespace perfbench
