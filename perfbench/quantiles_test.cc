// Oracle test for perfbench/quantiles.h: the selection-based quantile must
// equal the nearest-rank element of a fully sorted copy on random samples of
// every small size, and the reporting floor must hold p99 back below 1000
// samples. Exits non-zero on the first failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "quantiles.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, size_t n, double q) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s (n=%zu q=%.3f)\n", what, n, q);
  ++failures;
}

double SortedOracle(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main() {
  std::mt19937_64 rng(20161);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  const double qs[] = {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0};
  for (size_t n = 1; n <= 300; ++n) {
    std::vector<double> v(n);
    for (double& x : v) x = dist(rng);
    // Ties matter for order statistics: quantize half the samples.
    if (n % 2 == 0) {
      for (double& x : v) x = std::floor(x / 10.0);
    }
    for (double q : qs) {
      std::vector<double> work = v;
      auto got = perfbench::NearestRankQuantile(&work, q);
      Check(got.has_value() && *got == SortedOracle(v, q),
            "nearest-rank quantile matches the sorted oracle", n, q);
    }
  }
  std::vector<double> empty;
  Check(!perfbench::NearestRankQuantile(&empty, 0.5).has_value(),
        "empty sample has no quantile", 0, 0.5);

  Check(perfbench::MinSamplesForQuantile(0.5) == 20, "p50 floor is 20", 0, 0.5);
  Check(perfbench::MinSamplesForQuantile(0.99) == 1000, "p99 floor is 1000", 0,
        0.99);
  std::vector<double> v999(999, 1.0);
  Check(!perfbench::ReportedQuantile(v999, 0.99).has_value(),
        "p99 withheld at 999 samples", 999, 0.99);
  std::vector<double> v1000(1000);
  for (size_t i = 0; i < v1000.size(); ++i) v1000[i] = static_cast<double>(i);
  auto p99 = perfbench::ReportedQuantile(v1000, 0.99);
  Check(p99.has_value() && *p99 == 989.0, "p99 reported at 1000 samples", 1000,
        0.99);
  auto p50 = perfbench::ReportedQuantile(std::vector<double>(19, 1.0), 0.5);
  Check(!p50.has_value(), "p50 withheld at 19 samples", 19, 0.5);

  if (failures == 0) std::printf("quantiles_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
