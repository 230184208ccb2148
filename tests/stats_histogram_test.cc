// Tests for histogram binning: per-strategy behaviour plus parameterized
// invariants shared by all strategies, through BuildBinsFromRuns fed the runs
// of the values' ValueOrderIndex (the runs BinNumeric hands it).

#include <gtest/gtest.h>

#include <cmath>

#include "src/relation/column.h"
#include "src/stats/histogram.h"
#include "src/util/rng.h"

namespace dbx {
namespace {

// Bins `values` (NaNs ignored): one run per distinct value of their
// ValueOrderIndex, counted over the ranks.
Result<Bins> BinValues(const std::vector<double>& values, size_t max_bins,
                       BinStrategy strategy) {
  std::shared_ptr<const ValueOrderIndex> index = ValueOrderIndex::Build(values);
  std::vector<ValueRun> runs;
  for (double v : index->distinct) runs.push_back({v, 0});
  for (uint32_t k : index->ranks) {
    if (k != ValueOrderIndex::kNullRank) ++runs[k].count;
  }
  return BuildBinsFromRuns(runs, max_bins, strategy);
}

std::vector<double> UniformValues(size_t n, double lo, double hi,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextUniform(lo, hi);
  return v;
}

TEST(CompactNumberTest, Formats) {
  EXPECT_EQ(CompactNumber(20000), "20K");
  EXPECT_EQ(CompactNumber(25500), "25.5K");
  EXPECT_EQ(CompactNumber(1500000), "1.5M");
  EXPECT_EQ(CompactNumber(2000000), "2M");
  EXPECT_EQ(CompactNumber(37.5), "37.5");
  EXPECT_EQ(CompactNumber(12), "12");
}

TEST(BinsTest, BinOfClampsAndHandlesNan) {
  Bins b;
  b.edges = {0.0, 10.0, 20.0};
  EXPECT_EQ(b.BinOf(-5.0), 0);
  EXPECT_EQ(b.BinOf(0.0), 0);
  EXPECT_EQ(b.BinOf(9.99), 0);
  EXPECT_EQ(b.BinOf(10.0), 1);
  EXPECT_EQ(b.BinOf(20.0), 1);
  EXPECT_EQ(b.BinOf(25.0), 1);
  EXPECT_EQ(b.BinOf(std::nan("")), -1);
}

TEST(BinsTest, LabelUsesCompactForm) {
  Bins b;
  b.edges = {10000.0, 20000.0, 30000.0};
  EXPECT_EQ(b.LabelOf(0), "10K-20K");
  EXPECT_EQ(b.LabelOf(1), "20K-30K");
}

TEST(BuildBinsTest, EquiWidthEdgesAreUniform) {
  auto bins = BinValues({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5,
                        BinStrategy::kEquiWidth);
  ASSERT_TRUE(bins.ok());
  ASSERT_EQ(bins->num_bins(), 5u);
  for (size_t i = 0; i + 1 < bins->edges.size(); ++i) {
    EXPECT_NEAR(bins->edges[i + 1] - bins->edges[i], 2.0, 1e-12);
  }
}

TEST(BuildBinsTest, EquiDepthBalancesCounts) {
  std::vector<double> v = UniformValues(10000, 0, 100, 3);
  auto bins = BinValues(v, 4, BinStrategy::kEquiDepth);
  ASSERT_TRUE(bins.ok());
  ASSERT_EQ(bins->num_bins(), 4u);
  std::vector<size_t> counts(4, 0);
  for (double x : v) ++counts[bins->BinOf(x)];
  for (size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 2500.0, 250.0);
  }
}

TEST(BuildBinsTest, VOptimalSeparatesClusters) {
  // Three well-separated value clusters: V-optimal with 3 bins must cut
  // exactly between them (SSE ~ within-cluster only).
  std::vector<double> v;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) v.push_back(rng.NextGaussian(0.0, 0.5));
  for (int i = 0; i < 200; ++i) v.push_back(rng.NextGaussian(50.0, 0.5));
  for (int i = 0; i < 200; ++i) v.push_back(rng.NextGaussian(100.0, 0.5));
  auto bins = BinValues(v, 3, BinStrategy::kVOptimal);
  ASSERT_TRUE(bins.ok());
  ASSERT_EQ(bins->num_bins(), 3u);
  // Cluster centers land in distinct bins.
  EXPECT_EQ(bins->BinOf(0.0), 0);
  EXPECT_EQ(bins->BinOf(50.0), 1);
  EXPECT_EQ(bins->BinOf(100.0), 2);
}

TEST(BuildBinsTest, VOptimalBeatsEquiWidthOnSkewedData) {
  // Heavy skew: V-optimal should achieve lower SSE than equi-width.
  std::vector<double> v;
  Rng rng(17);
  for (int i = 0; i < 900; ++i) v.push_back(rng.NextUniform(0, 1));
  for (int i = 0; i < 100; ++i) v.push_back(rng.NextUniform(900, 1000));
  auto sse_of = [&](const Bins& b) {
    std::vector<double> sum(b.num_bins(), 0), cnt(b.num_bins(), 0);
    for (double x : v) {
      int32_t bin = b.BinOf(x);
      sum[bin] += x;
      cnt[bin] += 1;
    }
    double sse = 0;
    for (double x : v) {
      int32_t bin = b.BinOf(x);
      double mean = sum[bin] / cnt[bin];
      sse += (x - mean) * (x - mean);
    }
    return sse;
  };
  auto vo = BinValues(v, 4, BinStrategy::kVOptimal);
  auto ew = BinValues(v, 4, BinStrategy::kEquiWidth);
  ASSERT_TRUE(vo.ok());
  ASSERT_TRUE(ew.ok());
  EXPECT_LE(sse_of(*vo), sse_of(*ew) + 1e-9);
}

TEST(BuildBinsTest, ErrorsAndDegenerateInputs) {
  EXPECT_TRUE(BinValues({}, 4, BinStrategy::kEquiWidth).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(BinValues({1.0}, 0, BinStrategy::kEquiWidth).status()
                  .IsInvalidArgument());
  auto all_nan = BinValues({std::nan(""), std::nan("")}, 4,
                           BinStrategy::kEquiDepth);
  EXPECT_FALSE(all_nan.ok());

  auto constant = BinValues({5, 5, 5, 5}, 4, BinStrategy::kEquiDepth);
  ASSERT_TRUE(constant.ok());
  EXPECT_EQ(constant->num_bins(), 1u);
  EXPECT_EQ(constant->BinOf(5.0), 0);
}

// Shared invariants, parameterized over (strategy, max_bins).
class BinInvariantTest
    : public ::testing::TestWithParam<std::tuple<BinStrategy, size_t>> {};

TEST_P(BinInvariantTest, EdgesSortedAndCoverEveryValue) {
  auto [strategy, max_bins] = GetParam();
  std::vector<double> v = UniformValues(3000, -50, 200, 11);
  v.push_back(std::nan(""));  // NaNs must be ignored
  auto bins = BinValues(v, max_bins, strategy);
  ASSERT_TRUE(bins.ok()) << BinStrategyName(strategy);
  EXPECT_GE(bins->num_bins(), 1u);
  EXPECT_LE(bins->num_bins(), max_bins);
  for (size_t i = 0; i + 1 < bins->edges.size(); ++i) {
    EXPECT_LT(bins->edges[i], bins->edges[i + 1]);
  }
  for (double x : v) {
    if (std::isnan(x)) continue;
    int32_t b = bins->BinOf(x);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, static_cast<int32_t>(bins->num_bins()));
  }
  // Every bin has a printable label.
  for (size_t b = 0; b < bins->num_bins(); ++b) {
    EXPECT_FALSE(bins->LabelOf(b).empty());
    EXPECT_NE(bins->LabelOf(b), "?");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, BinInvariantTest,
    ::testing::Combine(::testing::Values(BinStrategy::kEquiWidth,
                                         BinStrategy::kEquiDepth,
                                         BinStrategy::kVOptimal),
                       ::testing::Values(1u, 2u, 5u, 8u, 16u)));

}  // namespace
}  // namespace dbx
