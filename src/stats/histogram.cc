#include "src/stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/string_util.h"

namespace dbx {

const char* BinStrategyName(BinStrategy s) {
  switch (s) {
    case BinStrategy::kEquiWidth: return "equi-width";
    case BinStrategy::kEquiDepth: return "equi-depth";
    case BinStrategy::kVOptimal: return "v-optimal";
  }
  return "?";
}

int32_t Bins::BinOf(double x) const {
  if (std::isnan(x) || edges.size() < 2) return -1;
  if (x <= edges.front()) return 0;
  if (x >= edges.back()) return static_cast<int32_t>(num_bins()) - 1;
  // upper_bound over interior edges.
  auto it = std::upper_bound(edges.begin(), edges.end(), x);
  return static_cast<int32_t>(it - edges.begin()) - 1;
}

std::string CompactNumber(double x) {
  double ax = std::fabs(x);
  if (ax >= 1e6) {
    double m = x / 1e6;
    std::string s = FormatDouble(m, m == std::floor(m) ? 0 : 1);
    return s + "M";
  }
  if (ax >= 1e3) {
    double k = x / 1e3;
    std::string s = FormatDouble(k, k == std::floor(k) ? 0 : 1);
    return s + "K";
  }
  if (x == std::floor(x)) return FormatDouble(x, 0);
  return FormatDouble(x, 1);
}

std::string Bins::LabelOf(size_t i) const {
  if (i + 1 >= edges.size()) return "?";
  return CompactNumber(edges[i]) + "-" + CompactNumber(edges[i + 1]);
}

namespace {

Bins SingleBin(double lo, double hi) {
  Bins b;
  b.edges = {lo, hi};
  return b;
}

Bins EquiWidth(double lo, double hi, size_t max_bins) {
  Bins b;
  b.edges.reserve(max_bins + 1);
  for (size_t i = 0; i <= max_bins; ++i) {
    b.edges.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(max_bins));
  }
  return b;
}

// Edges at the order statistics sorted[i * n / max_bins], read off the runs'
// cumulative counts (the indices ascend with i, so one forward walk).
Bins EquiDepth(const std::vector<ValueRun>& runs, size_t max_bins) {
  size_t n = 0;
  for (const ValueRun& r : runs) n += r.count;
  const double lo = runs.front().value, hi = runs.back().value;
  Bins b;
  b.edges.push_back(lo);
  size_t run = 0, before = 0;  // rows in runs[0, run)
  for (size_t i = 1; i < max_bins; ++i) {
    size_t idx = std::min(i * n / max_bins, n - 1);
    while (before + runs[run].count <= idx) before += runs[run++].count;
    double e = runs[run].value;
    if (e > b.edges.back()) b.edges.push_back(e);
  }
  // The last edge is the maximum. When the walk above already ended on the
  // maximum, that edge is duplicated rather than widened: the last bin is
  // the degenerate [max, max], which BinOf gives exactly the rows equal to
  // the maximum.
  b.edges.push_back(hi > b.edges.back() ? hi : b.edges.back());
  // Collapse a fully degenerate result into one bin.
  if (b.edges.size() < 2 || b.edges.front() == b.edges.back()) {
    return SingleBin(lo, hi);
  }
  return b;
}

// V-optimal histogram via dynamic programming on distinct values, minimizing
// total within-bucket SSE (Jagadish et al., VLDB'98 flavor).
Bins VOptimal(const std::vector<ValueRun>& runs, size_t max_bins) {
  size_t n = runs.size();
  size_t b = std::min(max_bins, n);
  if (b <= 1 || n <= 1) return SingleBin(runs.front().value, runs.back().value);

  // Prefix sums of weight, weighted value, weighted value^2.
  std::vector<double> w(n + 1, 0), s1(n + 1, 0), s2(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const double c = static_cast<double>(runs[i].count), v = runs[i].value;
    w[i + 1] = w[i] + c;
    s1[i + 1] = s1[i] + c * v;
    s2[i + 1] = s2[i] + c * v * v;
  }
  auto sse = [&](size_t i, size_t j) {  // values [i, j), i < j
    double cw = w[j] - w[i];
    double cs = s1[j] - s1[i];
    double cq = s2[j] - s2[i];
    return cq - cs * cs / cw;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // dp[k][j]: min SSE of first j distinct values using k buckets.
  std::vector<std::vector<double>> dp(b + 1, std::vector<double>(n + 1, kInf));
  std::vector<std::vector<size_t>> cut(b + 1, std::vector<size_t>(n + 1, 0));
  dp[0][0] = 0.0;
  for (size_t k = 1; k <= b; ++k) {
    for (size_t j = k; j <= n; ++j) {
      for (size_t i = k - 1; i < j; ++i) {
        if (dp[k - 1][i] == kInf) continue;
        double cost = dp[k - 1][i] + sse(i, j);
        if (cost < dp[k][j]) {
          dp[k][j] = cost;
          cut[k][j] = i;
        }
      }
    }
  }

  // An infinite value makes every bucket's SSE NaN (inf - inf), so no
  // partition gets a finite cost and there are no cut points to recover.
  if (!(dp[b][n] < kInf)) {
    return SingleBin(runs.front().value, runs.back().value);
  }

  // Recover cut points (indices into distinct values).
  std::vector<size_t> cuts;  // descending
  size_t j = n;
  for (size_t k = b; k >= 1; --k) {
    cuts.push_back(j);
    j = cut[k][j];
  }
  cuts.push_back(0);
  std::reverse(cuts.begin(), cuts.end());

  Bins bins;
  bins.edges.reserve(cuts.size());
  for (size_t c = 0; c < cuts.size(); ++c) {
    if (c == 0) {
      bins.edges.push_back(runs.front().value);
    } else if (cuts[c] >= n) {
      bins.edges.push_back(runs.back().value);
    } else {
      // Edge halfway between the last value of this bucket and the first of
      // the next, so BinOf assigns values unambiguously.
      bins.edges.push_back(
          0.5 * (runs[cuts[c] - 1].value + runs[cuts[c]].value));
    }
  }
  // Deduplicate any equal edges created by halfway collisions.
  bins.edges.erase(std::unique(bins.edges.begin(), bins.edges.end()),
                   bins.edges.end());
  if (bins.edges.size() < 2) {
    return SingleBin(runs.front().value, runs.back().value);
  }
  return bins;
}

}  // namespace

Result<Bins> BuildBinsFromRuns(const std::vector<ValueRun>& runs,
                               size_t max_bins, BinStrategy strategy) {
  if (max_bins == 0) return Status::InvalidArgument("max_bins must be >= 1");
  if (runs.empty()) {
    return Status::InvalidArgument("no non-null values to bin");
  }
  const double lo = runs.front().value, hi = runs.back().value;
  if (lo == hi || max_bins == 1) return SingleBin(lo, hi);
  switch (strategy) {
    case BinStrategy::kEquiWidth: return EquiWidth(lo, hi, max_bins);
    case BinStrategy::kEquiDepth: return EquiDepth(runs, max_bins);
    case BinStrategy::kVOptimal: return VOptimal(runs, max_bins);
  }
  return Status::InvalidArgument("unknown bin strategy");
}

}  // namespace dbx
