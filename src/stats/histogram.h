// Copyright (c) DBExplorer reproduction authors.
// Histogram construction for numeric-attribute cardinality reduction (paper
// §2.2.1, citing Jagadish & Suel's optimal-histogram work [17]). Three
// strategies: equi-width, equi-depth, and V-optimal (dynamic programming,
// minimizing within-bucket sum of squared error).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace dbx {

/// How numeric domains are carved into buckets.
enum class BinStrategy {
  kEquiWidth,
  kEquiDepth,
  kVOptimal,
};

const char* BinStrategyName(BinStrategy s);

/// A binning of a numeric domain: `edges` has num_bins+1 ascending entries;
/// bin i covers [edges[i], edges[i+1]) except the last, which is closed.
struct Bins {
  std::vector<double> edges;

  size_t num_bins() const { return edges.empty() ? 0 : edges.size() - 1; }

  /// Bin index for `x`, clamping to the first/last bin; -1 for NaN.
  int32_t BinOf(double x) const;

  /// Human label for bin i, e.g. "20K-25K" or "2.5-3.1".
  std::string LabelOf(size_t i) const;
};

/// One distinct value of a numeric domain and how many times it occurs.
struct ValueRun {
  double value = 0;
  size_t count = 0;
};

/// Builds bins over `runs`: the distinct non-NaN values in strictly
/// ascending order, each with its multiplicity (>= 1). `max_bins` >= 1.
/// Degenerate inputs (all-equal values) yield a single bin; no runs is
/// InvalidArgument. Every strategy reads only the runs, which BinNumeric
/// (src/stats/discretizer.h) reads off a ValueOrderIndex, so binning never
/// sorts values.
/// V-optimal runs an O(n'^2 * b) DP over the n' runs — use equi-depth when
/// the domain is large and latency matters.
[[nodiscard]]
Result<Bins> BuildBinsFromRuns(const std::vector<ValueRun>& runs,
                               size_t max_bins, BinStrategy strategy);

/// Formats a numeric bound compactly: 20000 -> "20K", 1500000 -> "1.5M",
/// 37.5 -> "37.5".
std::string CompactNumber(double x);

}  // namespace dbx
