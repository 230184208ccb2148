// Tests for the index-backed numeric discretization: DiscretizedTable::Build
// bins every fragment through the column's ValueOrderIndex, and must give
// byte for byte the edges, labels and codes of sorting the fragment's values
// and binning them. The reference below is that sort-based binning, kept
// here as the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <latch>
#include <limits>
#include <thread>

#include "src/data/synthetic.h"
#include "src/data/used_cars.h"
#include "src/stats/discretizer.h"
#include "src/util/rng.h"

namespace dbx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- Sort-based reference --------------------------------------------------

Bins RefSingleBin(double lo, double hi) {
  Bins b;
  b.edges = {lo, hi};
  return b;
}

Bins RefEquiWidth(const std::vector<double>& sorted, size_t max_bins) {
  double lo = sorted.front(), hi = sorted.back();
  Bins b;
  for (size_t i = 0; i <= max_bins; ++i) {
    b.edges.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(max_bins));
  }
  return b;
}

Bins RefEquiDepth(const std::vector<double>& sorted, size_t max_bins) {
  Bins b;
  b.edges.push_back(sorted.front());
  size_t n = sorted.size();
  for (size_t i = 1; i < max_bins; ++i) {
    double e = sorted[std::min(i * n / max_bins, n - 1)];
    if (e > b.edges.back()) b.edges.push_back(e);
  }
  b.edges.push_back(sorted.back() > b.edges.back() ? sorted.back()
                                                   : b.edges.back());
  if (b.edges.front() == b.edges.back()) {
    return RefSingleBin(sorted.front(), sorted.back());
  }
  return b;
}

Bins RefVOptimal(const std::vector<double>& sorted, size_t max_bins) {
  std::vector<double> vals, counts;
  for (double x : sorted) {
    if (vals.empty() || x != vals.back()) {
      vals.push_back(x);
      counts.push_back(1);
    } else {
      counts.back() += 1;
    }
  }
  size_t n = vals.size();
  size_t b = std::min(max_bins, n);
  if (b <= 1) return RefSingleBin(sorted.front(), sorted.back());
  std::vector<double> w(n + 1, 0), s1(n + 1, 0), s2(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    w[i + 1] = w[i] + counts[i];
    s1[i + 1] = s1[i] + counts[i] * vals[i];
    s2[i + 1] = s2[i] + counts[i] * vals[i] * vals[i];
  }
  auto sse = [&](size_t i, size_t j) {
    double cs = s1[j] - s1[i];
    return (s2[j] - s2[i]) - cs * cs / (w[j] - w[i]);
  };
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
  // With an infinite value no partition has a finite cost; one bin.
  if (!(dp[b][n] < kInf)) return RefSingleBin(sorted.front(), sorted.back());
  std::vector<size_t> cuts;
  size_t j = n;
  for (size_t k = b; k >= 1; --k) {
    cuts.push_back(j);
    j = cut[k][j];
  }
  cuts.push_back(0);
  std::reverse(cuts.begin(), cuts.end());
  Bins bins;
  for (size_t c = 0; c < cuts.size(); ++c) {
    if (c == 0) {
      bins.edges.push_back(vals.front());
    } else if (cuts[c] >= n) {
      bins.edges.push_back(vals.back());
    } else {
      bins.edges.push_back(0.5 * (vals[cuts[c] - 1] + vals[cuts[c]]));
    }
  }
  bins.edges.erase(std::unique(bins.edges.begin(), bins.edges.end()),
                   bins.edges.end());
  if (bins.edges.size() < 2) return RefSingleBin(sorted.front(), sorted.back());
  return bins;
}

// Sort-based discretization of one numeric column over `rows`. The one
// departure from binning the raw values: -0.0 is read as 0.0, the single
// value both zeros share in a ValueOrderIndex.
DiscreteAttr RefNumeric(const Column& col, const RowSet& rows,
                        const DiscretizerOptions& opt) {
  DiscreteAttr da;
  da.codes.assign(rows.size(), -1);
  std::vector<double> sorted;
  for (uint32_t r : rows) {
    if (!col.IsNullAt(r)) sorted.push_back(col.NumberAt(r) + 0.0);
  }
  if (sorted.empty()) return da;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.front() == sorted.back() || opt.max_numeric_bins == 1) {
    da.bins = RefSingleBin(sorted.front(), sorted.back());
  } else if (opt.strategy == BinStrategy::kEquiWidth) {
    da.bins = RefEquiWidth(sorted, opt.max_numeric_bins);
  } else if (opt.strategy == BinStrategy::kEquiDepth) {
    da.bins = RefEquiDepth(sorted, opt.max_numeric_bins);
  } else {
    da.bins = RefVOptimal(sorted, opt.max_numeric_bins);
  }
  for (size_t b = 0; b < da.bins.num_bins(); ++b) {
    da.labels.push_back(da.bins.LabelOf(b));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!col.IsNullAt(rows[i])) {
      da.codes[i] = da.bins.BinOf(col.NumberAt(rows[i]));
    }
  }
  return da;
}

std::vector<uint64_t> EdgeBits(const Bins& bins) {
  std::vector<uint64_t> bits;
  for (double e : bins.edges) bits.push_back(std::bit_cast<uint64_t>(e));
  return bits;
}

// Compares edges bit for bit (so -0.0 vs 0.0 and NaN payloads count),
// labels and codes.
void ExpectSameAttr(const DiscreteAttr& got, const DiscreteAttr& want,
                    const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(EdgeBits(got.bins), EdgeBits(want.bins));
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.codes, want.codes);
}

void ExpectMatchesReference(const Table& t, const RowSet& rows,
                            const DiscretizerOptions& opt,
                            const std::string& context) {
  auto dt = DiscretizedTable::Build({&t, rows}, opt);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  for (size_t a = 0; a < t.num_cols(); ++a) {
    if (t.schema().attr(a).type != AttrType::kNumeric) continue;
    ExpectSameAttr(dt->attr(a), RefNumeric(t.col(a), rows, opt),
                   context + " attr=" + t.schema().attr(a).name);
  }
}

// --- Fixture table ---------------------------------------------------------

// One column per awkward shape: a wide domain, all-distinct values, all
// null, constant, mostly NaN, infinities, few distinct values, and a mix of
// -0.0 and 0.0.
Table AwkwardTable(size_t n, uint64_t seed) {
  Schema s = std::move(Schema::Make({
                           {"Make", AttrType::kCategorical, true},
                           {"Price", AttrType::kNumeric, true},
                           {"Unique", AttrType::kNumeric, true},
                           {"AllNull", AttrType::kNumeric, true},
                           {"Const", AttrType::kNumeric, true},
                           {"NanHeavy", AttrType::kNumeric, true},
                           {"Inf", AttrType::kNumeric, true},
                           {"Year", AttrType::kNumeric, true},
                           {"SignedZero", AttrType::kNumeric, true},
                       }))
                 .value();
  Table t(s);
  Rng rng(seed);
  const char* makes[] = {"Ford", "Honda", "BMW"};
  const double zeros[] = {-0.0, 0.0, -1.0, 1.0, 2.0};
  for (size_t i = 0; i < n; ++i) {
    double inf_cell = rng.NextBool(0.1)   ? -kInf
                      : rng.NextBool(0.1) ? kInf
                                          : static_cast<double>(
                                                rng.NextInt(-5, 5));
    std::vector<Value> row = {
        Value(makes[rng.NextBounded(3)]),
        Value(100.0 * static_cast<double>(rng.NextInt(20, 400))),
        Value(rng.NextUniform(-1e6, 1e6)),
        Value::Null(),
        Value(7.5),
        rng.NextBool(0.9) ? Value::Null()
                          : Value(static_cast<double>(rng.NextInt(0, 50))),
        Value(inf_cell),
        Value(static_cast<double>(rng.NextInt(2005, 2012))),
        Value(zeros[rng.NextBounded(5)]),
    };
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

std::vector<std::pair<std::string, RowSet>> Slices(const Table& t,
                                                   uint64_t seed) {
  Rng rng(seed);
  auto keep = [&](double p) {
    RowSet rows;
    for (uint32_t r = 0; r < t.num_rows(); ++r) {
      if (rng.NextBool(p)) rows.push_back(r);
    }
    return rows;
  };
  RowSet last = {static_cast<uint32_t>(t.num_rows() - 1)};
  return {{"empty", {}},           {"one-row", last},
          {"all", t.AllRows()},    {"sparse", keep(0.05)},
          {"dense", keep(0.9)},    {"half", keep(0.5)}};
}

const BinStrategy kStrategies[] = {BinStrategy::kEquiWidth,
                                   BinStrategy::kEquiDepth,
                                   BinStrategy::kVOptimal};

// --- Tests -----------------------------------------------------------------

TEST(IndexedDiscretizeTest, MatchesSortBasedReferenceByteForByte) {
  Table t = AwkwardTable(300, 11);
  for (const auto& [name, rows] : Slices(t, 5)) {
    for (BinStrategy strategy : kStrategies) {
      for (size_t bins = 1; bins <= 16; ++bins) {
        DiscretizerOptions opt;
        opt.max_numeric_bins = bins;
        opt.strategy = strategy;
        ExpectMatchesReference(t, rows, opt,
                               name + " " + BinStrategyName(strategy) +
                                   " bins=" + std::to_string(bins));
      }
    }
  }
}

TEST(IndexedDiscretizeTest, MatchesReferenceOnUsedCars) {
  Table cars = GenerateUsedCars(3000, 3);
  for (const auto& [name, rows] : Slices(cars, 9)) {
    for (BinStrategy strategy : kStrategies) {
      DiscretizerOptions opt;
      opt.strategy = strategy;
      ExpectMatchesReference(cars, rows, opt,
                             name + " " + BinStrategyName(strategy));
    }
  }
}

TEST(IndexedDiscretizeTest, ScaledSampleBinsMatchSortReference) {
  // With bin_sample > 0, ScaledUsedCars::Discretize bins each numeric
  // attribute over the strided row sample {0, stride, 2 * stride, ...},
  // stride = rows / bin_sample, and codes every row by its value.
  constexpr size_t kRows = 20000, kSample = 1024;
  ScaledUsedCars gen(kRows, 3);
  auto table = gen.Materialize();
  ASSERT_TRUE(table.ok());
  RowSet sample;
  for (uint32_t r = 0; r < kRows; r += kRows / kSample) sample.push_back(r);
  for (BinStrategy strategy : kStrategies) {
    ScaledDiscretizeOptions opts;
    opts.bin_sample = kSample;
    opts.discretizer.strategy = strategy;
    auto dt = gen.Discretize(opts);
    ASSERT_TRUE(dt.ok()) << dt.status().ToString();
    for (size_t a = 0; a < table->num_cols(); ++a) {
      if (table->schema().attr(a).type != AttrType::kNumeric) continue;
      const Column& col = table->col(a);
      DiscreteAttr want = RefNumeric(col, sample, opts.discretizer);
      want.codes.clear();
      for (size_t r = 0; r < kRows; ++r) {
        want.codes.push_back(want.bins.BinOf(col.NumberAt(r)));
      }
      ExpectSameAttr(dt->attr(a), want,
                     std::string(BinStrategyName(strategy)) +
                         " attr=" + table->schema().attr(a).name);
    }
  }
}

TEST(IndexedDiscretizeTest, SignedZerosAreOneValueLabelledZero) {
  // Sorting put whichever zero std::sort happened to leave at an order
  // statistic into the edges: on these rows equi-depth over 4 bins used to
  // label "-1--0" and "-0-1". The index keeps the two zeros as one value,
  // 0.0, so the labels no longer depend on the sort.
  Schema s =
      std::move(Schema::Make({{"Z", AttrType::kNumeric, true}})).value();
  Table t(s);
  const double pattern[] = {-1.0, -0.0, 0.0, 1.0, 2.0};
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(pattern[i % 5])}).ok());
  }
  DiscretizerOptions opt;
  opt.max_numeric_bins = 4;
  auto dt = DiscretizedTable::Build(TableSlice::All(t), opt);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(dt->attr(0).labels,
            (std::vector<std::string>{"-1-0", "0-1", "1-2"}));
  EXPECT_EQ(dt->attr(0).codes,
            (std::vector<int32_t>{0, 1, 1, 2, 2, 0, 1, 1, 2, 2}));
  EXPECT_FALSE(std::signbit(dt->attr(0).bins.edges[1]));

  std::shared_ptr<const ValueOrderIndex> index = t.col(0).OrderIndex();
  EXPECT_EQ(index->distinct, (std::vector<double>{-1.0, 0.0, 1.0, 2.0}));
  EXPECT_EQ(index->ranks[1], index->ranks[2]);
}

TEST(IndexedDiscretizeTest, AppendsDropTheIndex) {
  Table t = AwkwardTable(200, 21);
  DiscretizerOptions opt;
  ExpectMatchesReference(t, t.AllRows(), opt, "before append");
  std::shared_ptr<const ValueOrderIndex> before = t.col(1).OrderIndex();
  EXPECT_EQ(before, t.col(1).OrderIndex());  // built once, then shared

  // A new maximum and a new minimum move every equi-depth edge.
  ASSERT_TRUE(t.AppendRow({Value("Ford"), Value(1e9), Value(1e9), Value::Null(),
                           Value(7.5), Value(1.0), Value(kInf), Value(2030.0),
                           Value(-0.0)})
                  .ok());
  ASSERT_TRUE(t.AppendRow({Value("BMW"), Value(-1e9), Value::Null(),
                           Value::Null(), Value(7.5), Value::Null(),
                           Value(-kInf), Value(1990.0), Value(0.0)})
                  .ok());
  std::shared_ptr<const ValueOrderIndex> after = t.col(1).OrderIndex();
  EXPECT_NE(before, after);
  EXPECT_EQ(before->ranks.size(), 200u);  // readers keep their snapshot
  EXPECT_EQ(after->ranks.size(), 202u);
  ExpectMatchesReference(t, t.AllRows(), opt, "after AppendRow");

  // Every numeric append path drops it: AppendNumber, AppendNull and
  // AppendNumbers.
  Column c(AttrType::kNumeric);
  c.AppendNumbers({3.0, 1.0, 2.0});
  EXPECT_EQ(c.OrderIndex()->ranks, (std::vector<uint32_t>{2, 0, 1}));
  c.AppendNumber(0.5);
  EXPECT_EQ(c.OrderIndex()->ranks, (std::vector<uint32_t>{3, 1, 2, 0}));
  c.AppendNull();
  EXPECT_EQ(c.OrderIndex()->ranks.back(), ValueOrderIndex::kNullRank);
  c.AppendNumbers({kNaN, 9.0});
  EXPECT_EQ(c.OrderIndex()->distinct,
            (std::vector<double>{0.5, 1.0, 2.0, 3.0, 9.0}));
  EXPECT_EQ(c.OrderIndex()->ranks,
            (std::vector<uint32_t>{3, 1, 2, 0, ValueOrderIndex::kNullRank,
                                   ValueOrderIndex::kNullRank, 4}));

  // A copy shares no index with its source and builds its own.
  Column copy = c;
  copy.AppendNumber(-1.0);
  EXPECT_EQ(copy.OrderIndex()->distinct.front(), -1.0);
  EXPECT_EQ(c.OrderIndex()->distinct.front(), 0.5);
}

TEST(IndexedDiscretizeTest, ConcurrentFirstBuildsAgree) {
  // No warm-up: every thread's Build is a first use of the same columns'
  // indexes, so the lazy build races unless it is guarded.
  Table cars = GenerateUsedCars(4000, 5);
  constexpr size_t kThreads = 4;
  DiscretizerOptions opt;
  RowSet rows;
  for (uint32_t r = 0; r < cars.num_rows(); r += 3) rows.push_back(r);
  std::vector<Result<DiscretizedTable>> results(
      kThreads, Status::Internal("not run"));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      results[i] = DiscretizedTable::Build({&cars, rows}, opt);
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    for (size_t a = 0; a < cars.num_cols(); ++a) {
      const DiscreteAttr& got = results[i]->attr(a);
      const DiscreteAttr& first = results[0]->attr(a);
      EXPECT_EQ(got.labels, first.labels);
      EXPECT_EQ(got.codes, first.codes);
      if (cars.schema().attr(a).type == AttrType::kNumeric) {
        ExpectSameAttr(got, RefNumeric(cars.col(a), rows, opt),
                       "thread " + std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace dbx
