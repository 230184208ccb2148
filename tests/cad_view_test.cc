// Tests for the CAD View builder and the in-view search operations
// (Problems 1-4), including the §6.3 optimizations.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>

#include "src/cluster/encoder.h"
#include "src/cluster/kmeans.h"
#include "src/core/cad_view_builder.h"
#include "src/core/cad_view_io.h"
#include "src/core/cad_view_renderer.h"
#include "src/core/iunit_similarity.h"
#include "src/core/view_cache.h"
#include "src/data/mushroom.h"
#include "src/data/synthetic.h"
#include "src/data/used_cars.h"
#include "src/explorer/tpfacet_session.h"
#include "src/obs/metrics.h"
#include "src/stats/feature_selection.h"
#include "src/stats/sampling.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace dbx {
namespace {

// Small deterministic used-car table shared by the suite.
class CadViewTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new Table(GenerateUsedCars(4000, 3));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  static CadViewOptions BaseOptions() {
    CadViewOptions o;
    o.pivot_attr = "Make";
    o.pivot_values = {"Ford", "Chevrolet", "Jeep"};
    o.max_compare_attrs = 4;
    o.iunits_per_value = 3;
    o.seed = 5;
    return o;
  }

  static Table* table_;
};

Table* CadViewTest::table_ = nullptr;

TEST_F(CadViewTest, RowsMatchRequestedPivotValues) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->rows.size(), 3u);
  EXPECT_EQ(view->rows[0].pivot_value, "Ford");
  EXPECT_EQ(view->rows[1].pivot_value, "Chevrolet");
  EXPECT_EQ(view->rows[2].pivot_value, "Jeep");
  for (const CadViewRow& r : view->rows) {
    EXPECT_GT(r.partition_size, 0u);
    EXPECT_LE(r.iunits.size(), 3u);
    EXPECT_GE(r.iunits.size(), 1u);
  }
}

TEST_F(CadViewTest, CompareAttrsExcludePivotAndRespectLimit) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  EXPECT_LE(view->compare_attrs.size(), 4u);
  EXPECT_GE(view->compare_attrs.size(), 1u);
  for (const CompareAttribute& ca : view->compare_attrs) {
    EXPECT_NE(ca.name, "Make");
  }
  // Auto-selected attrs are ranked by decreasing relevance.
  for (size_t i = 1; i < view->compare_attrs.size(); ++i) {
    if (!view->compare_attrs[i - 1].user_selected &&
        !view->compare_attrs[i].user_selected) {
      EXPECT_GE(view->compare_attrs[i - 1].relevance,
                view->compare_attrs[i].relevance);
    }
  }
}

TEST_F(CadViewTest, UserCompareAttrsComeFirst) {
  CadViewOptions o = BaseOptions();
  o.user_compare_attrs = {"Price"};
  auto view = BuildCadView(TableSlice::All(*table_), o);
  ASSERT_TRUE(view.ok());
  ASSERT_FALSE(view->compare_attrs.empty());
  EXPECT_EQ(view->compare_attrs[0].name, "Price");
  EXPECT_TRUE(view->compare_attrs[0].user_selected);
}

TEST_F(CadViewTest, ModelIsTopAutoCompareAttributeForMakes) {
  // Make determines Model in the generator, so chi-square must rank Model
  // first (the paper's "Model is better than Mileage" observation).
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->compare_attrs[0].name, "Model");
}

TEST_F(CadViewTest, IUnitsHaveUniformLabelSchema) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  for (const CadViewRow& r : view->rows) {
    for (const IUnit& u : r.iunits) {
      EXPECT_EQ(u.cells.size(), view->compare_attrs.size());
      EXPECT_EQ(u.attr_freqs.size(), view->compare_attrs.size());
      EXPECT_EQ(u.pivot_value, r.pivot_value);
      EXPECT_GT(u.size(), 0u);
    }
  }
}

TEST_F(CadViewTest, IUnitsWithinRowRankedByScoreAndDiverse) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  for (const CadViewRow& r : view->rows) {
    for (size_t i = 1; i < r.iunits.size(); ++i) {
      EXPECT_GE(r.iunits[i - 1].score, r.iunits[i].score);
    }
    for (size_t i = 0; i < r.iunits.size(); ++i) {
      for (size_t j = i + 1; j < r.iunits.size(); ++j) {
        EXPECT_LT(IUnitSimilarity(r.iunits[i], r.iunits[j]), view->tau)
            << r.pivot_value << " iunits " << i << "," << j;
      }
    }
  }
}

TEST_F(CadViewTest, PartitionMembersCarryPivotValue) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  auto dt = DiscretizedTable::Build(TableSlice::All(*table_),
                                    DiscretizerOptions{});
  ASSERT_TRUE(dt.ok());
  auto make_idx = dt->IndexOf("Make");
  ASSERT_TRUE(make_idx.has_value());
  const DiscreteAttr& make = dt->attr(*make_idx);
  for (const CadViewRow& r : view->rows) {
    for (const IUnit& u : r.iunits) {
      for (size_t pos : u.member_positions) {
        EXPECT_EQ(make.labels[make.codes[pos]], r.pivot_value);
      }
    }
  }
}

TEST_F(CadViewTest, EmptyPivotValueListUsesAllValues) {
  CadViewOptions o = BaseOptions();
  o.pivot_values.clear();
  o.pivot_attr = "BodyType";
  auto view = BuildCadView(TableSlice::All(*table_), o);
  ASSERT_TRUE(view.ok());
  EXPECT_GE(view->rows.size(), 3u);  // SUV, Sedan, Truck, ...
  // Default order: most frequent first.
  for (size_t i = 1; i < view->rows.size(); ++i) {
    EXPECT_GE(view->rows[i - 1].partition_size,
              view->rows[i].partition_size);
  }
}

TEST_F(CadViewTest, UnknownPivotValueYieldsEmptyRow) {
  CadViewOptions o = BaseOptions();
  o.pivot_values = {"Ford", "NoSuchMake"};
  auto view = BuildCadView(TableSlice::All(*table_), o);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->rows.size(), 2u);
  EXPECT_EQ(view->rows[1].partition_size, 0u);
  EXPECT_TRUE(view->rows[1].iunits.empty());
}

TEST_F(CadViewTest, ErrorCases) {
  CadViewOptions o = BaseOptions();
  o.pivot_attr = "NoSuchAttr";
  EXPECT_TRUE(
      BuildCadView(TableSlice::All(*table_), o).status().IsNotFound());

  o = BaseOptions();
  o.iunits_per_value = 0;
  EXPECT_TRUE(
      BuildCadView(TableSlice::All(*table_), o).status().IsInvalidArgument());

  o = BaseOptions();
  o.user_compare_attrs = {"Make"};
  EXPECT_TRUE(
      BuildCadView(TableSlice::All(*table_), o).status().IsInvalidArgument());

  o = BaseOptions();
  o.user_compare_attrs = {"Price", "Price"};
  EXPECT_TRUE(
      BuildCadView(TableSlice::All(*table_), o).status().IsInvalidArgument());

  o = BaseOptions();
  o.max_compare_attrs = 1;
  o.user_compare_attrs = {"Price", "Year"};
  EXPECT_TRUE(
      BuildCadView(TableSlice::All(*table_), o).status().IsInvalidArgument());
}

TEST_F(CadViewTest, TimingsPopulated) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  EXPECT_GT(view->timings.total_ms, 0.0);
  EXPECT_GE(view->timings.compare_attrs_ms, 0.0);
  EXPECT_GE(view->timings.iunit_gen_ms, 0.0);
  EXPECT_GE(view->timings.others_ms(), 0.0);
  EXPECT_FALSE(RenderTimings(view->timings).empty());
}

// --- Problem 3 / 4 -------------------------------------------------------------

TEST_F(CadViewTest, FindSimilarIUnitsExcludesSelfAndSortsDescending) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  auto matches = view->FindSimilarIUnits("Ford", 0, 0.0);
  ASSERT_TRUE(matches.ok());
  size_t total_iunits = 0;
  for (const CadViewRow& r : view->rows) total_iunits += r.iunits.size();
  EXPECT_EQ(matches->size(), total_iunits - 1);  // everything but itself
  for (size_t i = 1; i < matches->size(); ++i) {
    EXPECT_GE((*matches)[i - 1].similarity, (*matches)[i].similarity);
  }
  for (const IUnitRef& m : *matches) {
    EXPECT_FALSE(m.row == 0 && m.iunit == 0);
  }
}

TEST_F(CadViewTest, FindSimilarIUnitsThresholdFilters) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  auto all = view->FindSimilarIUnits("Ford", 0, 0.0);
  auto none = view->FindSimilarIUnits(
      "Ford", 0, static_cast<double>(view->compare_attrs.size()) + 1.0);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_GT(all->size(), none->size());
}

TEST_F(CadViewTest, FindSimilarIUnitsErrors) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->FindSimilarIUnits("Nope", 0, 0.0).status().IsNotFound());
  EXPECT_TRUE(view->FindSimilarIUnits("Ford", 99, 0.0).status().IsOutOfRange());
}

TEST_F(CadViewTest, RankRowsBySimilarityAnchorFirst) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  auto ranked = view->RankRowsBySimilarity("Chevrolet");
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].first, "Chevrolet");
  EXPECT_DOUBLE_EQ((*ranked)[0].second, 0.0);
  for (size_t i = 1; i < ranked->size(); ++i) {
    EXPECT_GE((*ranked)[i].second, (*ranked)[i - 1].second);
  }
}

TEST_F(CadViewTest, ReorderRowsAppliesRanking) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  auto ranked = view->RankRowsBySimilarity("Jeep");
  ASSERT_TRUE(ranked.ok());
  ASSERT_TRUE(view->ReorderRowsBySimilarity("Jeep").ok());
  for (size_t i = 0; i < view->rows.size(); ++i) {
    EXPECT_EQ(view->rows[i].pivot_value, (*ranked)[i].first);
  }
  EXPECT_EQ(view->rows[0].pivot_value, "Jeep");
}

// --- Renderer -------------------------------------------------------------------

TEST_F(CadViewTest, RenderContainsPivotValuesAndAttrs) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  std::string out = RenderCadView(*view);
  EXPECT_NE(out.find("Ford"), std::string::npos);
  EXPECT_NE(out.find("Chevrolet"), std::string::npos);
  EXPECT_NE(out.find("IUnit 1"), std::string::npos);
  for (const CompareAttribute& ca : view->compare_attrs) {
    EXPECT_NE(out.find(ca.name), std::string::npos);
  }
}

TEST_F(CadViewTest, RenderMarksHighlights) {
  auto view = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(view.ok());
  RenderOptions ro;
  ro.highlights = {{0, 0, 0.0}};
  std::string out = RenderCadView(*view, ro);
  EXPECT_NE(out.find("* ["), std::string::npos);
}

// --- §6.3 optimizations ----------------------------------------------------------

TEST_F(CadViewTest, SamplingKeepsTopCompareAttribute) {
  CadViewOptions o = BaseOptions();
  auto full = BuildCadView(TableSlice::All(*table_), o);
  o.feature_selection_sample = 800;
  auto sampled = BuildCadView(TableSlice::All(*table_), o);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(full->compare_attrs[0].name, sampled->compare_attrs[0].name);
}

// The sampled build (Optimization 1) ranks with the configured ranker, not
// always chi-square: each auto-chosen relevance is the RankFeatures score over
// the builder's own row sample.
TEST_F(CadViewTest, SampledRankingHonoursRanker) {
  Table table = GenerateMushrooms(2000);
  CadViewOptions o;
  o.pivot_attr = "Class";
  o.max_compare_attrs = 4;
  o.iunits_per_value = 3;
  o.seed = 7;
  o.feature_selection.ranker = FeatureRanker::kMutualInformation;
  o.feature_selection_sample = 600;
  auto dt = DiscretizedTable::Build(TableSlice::All(table), o.discretizer);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();

  Counter* rankings =
      MetricsRegistry::Global()->GetCounter("dbx_stats_rank_features_total");
  const uint64_t rankings_before = rankings->Value();
  auto view = BuildCadViewFromDiscretized(*dt, o);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_GT(rankings->Value(), rankings_before);

  // The builder's sample: uniform row positions drawn from Rng(seed).
  std::vector<uint32_t> positions(dt->num_rows());
  for (uint32_t i = 0; i < positions.size(); ++i) positions[i] = i;
  Rng rng(o.seed);
  DiscretizedTable sample =
      dt->Project(SampleRows(positions, o.feature_selection_sample, &rng));
  const size_t pivot = *sample.IndexOf("Class");
  std::vector<int32_t> cls(sample.num_rows(), -1);
  for (size_t i = 0; i < cls.size(); ++i) {
    for (size_t v = 0; v < view->rows.size(); ++v) {
      if (view->rows[v].pivot_code == sample.attr(pivot).codes[i]) {
        cls[i] = static_cast<int32_t>(v);
      }
    }
  }
  std::vector<size_t> candidates;
  for (size_t a = 0; a < sample.num_attrs(); ++a) {
    if (a != pivot && sample.attr(a).cardinality() > 0) candidates.push_back(a);
  }
  auto ranked = RankFeatures(sample, cls, view->rows.size(), candidates,
                             o.feature_selection);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();

  ASSERT_FALSE(view->compare_attrs.empty());
  for (const CompareAttribute& ca : view->compare_attrs) {
    auto fs = std::find_if(
        ranked->begin(), ranked->end(),
        [&](const FeatureScore& f) { return f.attr_index == ca.attr_index; });
    ASSERT_NE(fs, ranked->end()) << ca.name;
    EXPECT_EQ(ca.relevance, fs->score) << ca.name;
    EXPECT_EQ(ca.p_value, fs->p_value) << ca.name;
  }
}

TEST_F(CadViewTest, ClusteringSampleStillYieldsIUnits) {
  CadViewOptions o = BaseOptions();
  o.clustering_sample = 200;
  auto view = BuildCadView(TableSlice::All(*table_), o);
  ASSERT_TRUE(view.ok());
  for (const CadViewRow& r : view->rows) {
    EXPECT_GE(r.iunits.size(), 1u);
    for (const IUnit& u : r.iunits) {
      EXPECT_LE(u.size(), 200u);
    }
  }
}

TEST_F(CadViewTest, AdaptiveLReducesCandidates) {
  CadViewOptions o = BaseOptions();
  o.adaptive_l = true;
  o.adaptive_l_threshold = 1;  // force the adaptive path
  auto view = BuildCadView(TableSlice::All(*table_), o);
  ASSERT_TRUE(view.ok());
  // l collapses to k; at most k IUnits still delivered.
  for (const CadViewRow& r : view->rows) {
    EXPECT_LE(r.iunits.size(), o.iunits_per_value);
  }
}

TEST_F(CadViewTest, ParallelBuildMatchesSerial) {
  CadViewOptions serial = BaseOptions();
  CadViewOptions parallel = BaseOptions();
  parallel.num_threads = 4;
  auto a = BuildCadView(TableSlice::All(*table_), serial);
  auto b = BuildCadView(TableSlice::All(*table_), parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(RenderCadView(*a), RenderCadView(*b));
}

TEST_F(CadViewTest, AutoLSelectsQualityClustering) {
  CadViewOptions o = BaseOptions();
  o.auto_l = true;
  o.auto_l_max_factor = 2.0;
  auto view = BuildCadView(TableSlice::All(*table_), o);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (const CadViewRow& r : view->rows) {
    EXPECT_GE(r.iunits.size(), 1u);
    EXPECT_LE(r.iunits.size(), o.iunits_per_value);
  }
  // Deterministic like everything else.
  auto again = BuildCadView(TableSlice::All(*table_), o);
  ASSERT_TRUE(again.ok());
  for (size_t r = 0; r < view->rows.size(); ++r) {
    ASSERT_EQ(view->rows[r].iunits.size(), again->rows[r].iunits.size());
    for (size_t u = 0; u < view->rows[r].iunits.size(); ++u) {
      EXPECT_EQ(view->rows[r].iunits[u].size(),
                again->rows[r].iunits[u].size());
    }
  }
}

TEST_F(CadViewTest, DeterministicForSeed) {
  auto a = BuildCadView(TableSlice::All(*table_), BaseOptions());
  auto b = BuildCadView(TableSlice::All(*table_), BaseOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(RenderCadView(*a), RenderCadView(*b));
}

// --- Thread-count determinism -----------------------------------------------
//
// The thread-pool contract: for ANY num_threads the built CAD View is
// byte-identical to the single-threaded build. Serialize via cad_view_io with
// timings zeroed (wall-clock timings are the one legitimately run-varying
// field in the JSON).

std::string SerializeStable(CadView view) {
  view.timings = CadViewTimings{};
  return CadViewToJson(view) + "\n---\n" + CadViewToCsv(view);
}

void ExpectByteIdenticalAcrossThreadCounts(const Table& table,
                                           CadViewOptions options) {
  options.num_threads = 1;
  auto baseline = BuildCadView(TableSlice::All(table), options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string expected = SerializeStable(*baseline);
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}, TestThreads(4)}) {
    options.num_threads = threads;
    auto view = BuildCadView(TableSlice::All(table), options);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(SerializeStable(*view), expected)
        << "num_threads=" << threads << " diverged from serial build";
  }
}

TEST(CadViewDeterminismTest, MushroomByteIdenticalAcrossThreadCounts) {
  Table table = GenerateMushrooms(2000);
  CadViewOptions o;
  o.pivot_attr = "Class";
  o.max_compare_attrs = 4;
  o.iunits_per_value = 3;
  o.seed = 7;
  ExpectByteIdenticalAcrossThreadCounts(table, o);
}

TEST(CadViewDeterminismTest, SyntheticByteIdenticalAcrossThreadCounts) {
  SyntheticSpec spec;
  spec.rows = 3000;
  spec.categorical_attrs = 8;
  spec.numeric_attrs = 2;
  spec.cardinality = 6;
  spec.clusters = 5;
  spec.seed = 19;
  auto table = GenerateSynthetic(spec);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  CadViewOptions o;
  o.pivot_attr = "C0";
  o.max_compare_attrs = 5;
  o.iunits_per_value = 3;
  o.seed = 7;
  ExpectByteIdenticalAcrossThreadCounts(*table, o);
}

// The flagship sharding invariant (ISSUE 7 / DESIGN.md §13): the sharded
// out-of-core build path must produce the unsharded build's exact bytes at
// EVERY shard x thread combination. Mushroom rides with the default
// min_rows_per_shard clamp disabled so 8 shards on 8124 rows is a real
// 8-way split, not a silent clamp to 1.
void ExpectByteIdenticalAcrossShardGrid(const Table& table,
                                        CadViewOptions options) {
  options.num_threads = 1;
  options.sharding = ShardOptions{};
  auto baseline = BuildCadView(TableSlice::All(table), options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string expected = SerializeStable(*baseline);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                        TestShards(2)}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      options.sharding.num_shards = shards;
      options.sharding.min_rows_per_shard = 1;
      options.num_threads = threads;
      auto view = BuildCadView(TableSlice::All(table), options);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      EXPECT_EQ(SerializeStable(*view), expected)
          << "num_shards=" << shards << " num_threads=" << threads
          << " diverged from the unsharded serial build";
    }
  }
}

TEST(CadViewDeterminismTest, UsedCars40KByteIdenticalAcrossShardGrid) {
  Table table = GenerateUsedCars(40000, 42);
  CadViewOptions o;
  o.pivot_attr = "Make";
  o.pivot_values = {"Chevrolet", "Ford", "Jeep", "Toyota", "Honda"};
  o.max_compare_attrs = 5;
  o.iunits_per_value = 3;
  o.seed = 7;
  ExpectByteIdenticalAcrossShardGrid(table, o);
}

TEST(CadViewDeterminismTest, MushroomByteIdenticalAcrossShardGrid) {
  Table table = GenerateMushrooms();
  CadViewOptions o;
  o.pivot_attr = "Class";
  o.max_compare_attrs = 4;
  o.iunits_per_value = 3;
  o.seed = 7;
  ExpectByteIdenticalAcrossShardGrid(table, o);
}

TEST(CadViewDeterminismTest, SampledFeatureSelectionPathByteIdentical) {
  // feature_selection_sample ranks a projected row sample through
  // RankFeatures — cover it explicitly.
  Table table = GenerateMushrooms(2000);
  CadViewOptions o;
  o.pivot_attr = "Class";
  o.max_compare_attrs = 4;
  o.iunits_per_value = 3;
  o.seed = 7;
  o.feature_selection_sample = 600;
  ExpectByteIdenticalAcrossThreadCounts(table, o);
}

// Build goldens: the FNV-1a of SerializeStable for builds that take each
// pivot-planning and ranking branch (default and explicit pivot values, a
// numeric pivot, sampled ranking, sampled clustering, a caller-given seed).
// The values pin the view bytes independently of the byte-identity suites,
// which compare the build path with itself.
uint64_t ViewHash(const CadView& view) {
  const std::string bytes = SerializeStable(view);
  return Fnv1aAppend(kFnv1aOffset, bytes.data(), bytes.size());
}

TEST(CadViewGoldenTest, BuildsMatchRecordedHashes) {
  Table table = GenerateUsedCars(4000, 3);
  CadViewOptions base;
  base.pivot_attr = "Make";
  base.max_compare_attrs = 4;
  base.iunits_per_value = 3;
  base.seed = 5;

  CadViewOptions explicit_values = base;
  explicit_values.pivot_values = {"Ford", "Jeep", "Ford", "NoSuchMake"};
  CadViewOptions numeric_pivot = base;
  numeric_pivot.pivot_attr = "Year";
  CadViewOptions sampled_ranking = base;
  sampled_ranking.feature_selection.ranker = FeatureRanker::kChiSquare;
  sampled_ranking.feature_selection_sample = 800;
  CadViewOptions sampled_clustering = base;
  sampled_clustering.clustering_sample = 200;

  const std::vector<std::pair<const char*, CadViewOptions>> cases = {
      {"all pivot values", base},
      {"explicit values", explicit_values},
      {"numeric pivot", numeric_pivot},
      {"sampled ranking", sampled_ranking},
      {"sampled clustering", sampled_clustering},
  };
  const uint64_t kGolden[] = {
      0x2efbc88c16d53929ULL,
      0x95ffe654743a8c48ULL,
      0x5c9de37589b0d319ULL,
      0x9521e86259381b5aULL,
      0xe45501a6ebe837b5ULL,
  };
  for (size_t threads : {size_t{1}, TestThreads(4)}) {
    for (size_t i = 0; i < cases.size(); ++i) {
      CadViewOptions o = cases[i].second;
      o.num_threads = threads;
      auto view = BuildCadView(TableSlice::All(table), o);
      ASSERT_TRUE(view.ok()) << cases[i].first << ": "
                             << view.status().ToString();
      EXPECT_EQ(ViewHash(*view), kGolden[i])
          << cases[i].first << " num_threads=" << threads;
    }
  }

  // Seeded: the partitions of an all-values build seed an explicit-values
  // build over the same discretization.
  auto dt = DiscretizedTable::Build(TableSlice::All(table), base.discretizer);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  CadViewBuildExtras extras;
  ASSERT_TRUE(BuildCadViewFromDiscretized(*dt, base, nullptr, &extras).ok());
  CadViewOptions seeded = base;
  seeded.pivot_values = {"Jeep", "Toyota", "Ford"};
  auto view = BuildCadViewFromDiscretized(*dt, seeded, &extras.partitions);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(ViewHash(*view), 0x5fcae51b4e2ab343ULL);
}

TEST(CadViewGoldenTest, ErrorTextIsStable) {
  Table table = GenerateUsedCars(4000, 3);
  CadViewOptions o;
  o.pivot_attr = "Make";
  EXPECT_EQ(BuildCadView(TableSlice{&table, {}}, o).status().ToString(),
            "InvalidArgument: pivot attribute 'Make' has no values in the "
            "fragment");

  o.pivot_attr = "NoSuchAttr";
  EXPECT_EQ(BuildCadView(TableSlice::All(table), o).status().ToString(),
            "NotFound: pivot attribute 'NoSuchAttr' not in table");
}

TEST(CadViewDeterminismTest, TracingDoesNotPerturbBytes) {
  // The observability contract: an enabled tracer collecting every stage span
  // changes no output byte at any thread count, and a traced build matches an
  // untraced one exactly.
  Table table = GenerateMushrooms(2000);
  CadViewOptions o;
  o.pivot_attr = "Class";
  o.max_compare_attrs = 4;
  o.iunits_per_value = 3;
  o.seed = 7;

  o.num_threads = 1;
  auto untraced = BuildCadView(TableSlice::All(table), o);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
  const std::string expected = SerializeStable(*untraced);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, TestThreads(4)}) {
    Tracer tracer;
    o.num_threads = threads;
    o.tracer = &tracer;
    auto view = BuildCadView(TableSlice::All(table), o);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(SerializeStable(*view), expected)
        << "num_threads=" << threads << " with tracing diverged";
    // The pipeline actually recorded spans (tracing was really on), and the
    // per-partition stages nest under the iunit_gen umbrella span.
    std::vector<TraceEvent> events = tracer.Events();
    EXPECT_FALSE(events.empty());
    uint64_t iunit_gen_id = 0;
    for (const TraceEvent& e : events) {
      if (e.name == "iunit_gen") iunit_gen_id = e.id;
    }
    ASSERT_NE(iunit_gen_id, 0u) << "missing iunit_gen span";
    size_t nested_kmeans = 0;
    for (const TraceEvent& e : events) {
      if (e.name == "kmeans" && e.parent == iunit_gen_id) ++nested_kmeans;
    }
    EXPECT_GT(nested_kmeans, 0u);
  }
  o.tracer = Tracer::Disabled();
}

TEST(CadViewDeterminismTest, KMeansIdenticalAcrossThreadCounts) {
  // > kAssignGrain (1024) points so the chunked reduction actually splits.
  Table table = GenerateMushrooms(3000);
  auto dt = DiscretizedTable::Build(TableSlice::All(table),
                                    DiscretizerOptions{});
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  std::vector<size_t> attrs = {1, 2, 3, 4};
  auto encoder = OneHotEncoder::Plan(*dt, attrs);
  ASSERT_TRUE(encoder.ok()) << encoder.status().ToString();
  std::vector<size_t> rows(dt->num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  EncodedMatrix points = encoder->Encode(*dt, rows);

  KMeansOptions ko;
  ko.k = 6;
  ko.seed = 13;
  ko.num_threads = 1;
  auto baseline = RunKMeans(points, ko);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    ko.num_threads = threads;
    auto res = RunKMeans(points, ko);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->assignments, baseline->assignments)
        << "num_threads=" << threads;
    EXPECT_EQ(res->iterations, baseline->iterations);
    ASSERT_EQ(res->centroids.size(), baseline->centroids.size());
    for (size_t i = 0; i < res->centroids.size(); ++i) {
      // Exact equality, not near: the chunk-ordered reduction must reproduce
      // the serial floating-point sums bit for bit.
      EXPECT_EQ(res->centroids[i], baseline->centroids[i])
          << "centroid component " << i << " num_threads=" << threads;
    }
    EXPECT_EQ(res->inertia, baseline->inertia);
  }
}

TEST(CadViewDeterminismTest, FeatureRankingIdenticalAcrossThreadCounts) {
  Table table = GenerateMushrooms(2000);
  auto dt = DiscretizedTable::Build(TableSlice::All(table),
                                    DiscretizerOptions{});
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  auto class_idx = dt->IndexOf("Class");
  ASSERT_TRUE(class_idx.has_value());
  const DiscreteAttr& pivot = dt->attr(*class_idx);
  std::vector<size_t> candidates;
  for (size_t a = 0; a < dt->num_attrs(); ++a) {
    if (a != *class_idx) candidates.push_back(a);
  }

  FeatureSelectionOptions fo;
  fo.num_threads = 1;
  auto baseline =
      RankFeatures(*dt, pivot.codes, pivot.cardinality(), candidates, fo);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    fo.num_threads = threads;
    auto ranked =
        RankFeatures(*dt, pivot.codes, pivot.cardinality(), candidates, fo);
    ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
    ASSERT_EQ(ranked->size(), baseline->size());
    for (size_t i = 0; i < ranked->size(); ++i) {
      EXPECT_EQ((*ranked)[i].attr_index, (*baseline)[i].attr_index)
          << "rank " << i << " num_threads=" << threads;
      EXPECT_EQ((*ranked)[i].name, (*baseline)[i].name);
      EXPECT_EQ((*ranked)[i].score, (*baseline)[i].score);
      EXPECT_EQ((*ranked)[i].chi2, (*baseline)[i].chi2);
      EXPECT_EQ((*ranked)[i].p_value, (*baseline)[i].p_value);
      EXPECT_EQ((*ranked)[i].significant, (*baseline)[i].significant);
    }
  }
}

TEST_F(CadViewTest, CustomPreferenceFunctionChangesRanking) {
  CadViewOptions o = BaseOptions();
  o.user_compare_attrs = {"Price"};
  // Taxi-fleet manager: prefer clusters whose Price representative is the
  // cheapest bin (paper §2.2.2's preference-function discussion).
  o.preference = [](const IUnit& u) {
    if (u.cells.empty() || u.cells[0].codes.empty()) return 0.0;
    return -static_cast<double>(u.cells[0].codes[0]);
  };
  auto view = BuildCadView(TableSlice::All(*table_), o);
  ASSERT_TRUE(view.ok());
  for (const CadViewRow& r : view->rows) {
    for (size_t i = 1; i < r.iunits.size(); ++i) {
      EXPECT_GE(r.iunits[i - 1].score, r.iunits[i].score);
    }
  }
}

// --- Session-scoped view cache: drill-down replay regression -----------------
//
// The cache contract: for ANY cache state (absent, cold, warm, partially
// evicted) and ANY thread count, every view a session serves is byte-identical
// to the uncached single-threaded build. A fixed 10-step TPFacet script —
// selects, a widen, an undo, a deselect, pivot-value restriction — is replayed
// under each configuration and compared step by step via SerializeStable.

// `rank`-th most frequent label of `attr` in the facet domain (ties broken by
// code), so the script adapts to the generated data instead of hard-coding
// generator internals.
std::string FrequentLabel(const DiscretizedTable& dt, const std::string& attr,
                          size_t rank) {
  auto idx = dt.IndexOf(attr);
  EXPECT_TRUE(idx.has_value()) << attr;
  const DiscreteAttr& a = dt.attr(*idx);
  std::vector<size_t> counts(a.cardinality(), 0);
  for (int32_t code : a.codes) {
    if (code >= 0) ++counts[static_cast<size_t>(code)];
  }
  std::vector<int32_t> order(a.cardinality());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  std::sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
    if (counts[x] != counts[y]) return counts[x] > counts[y];
    return x < y;
  });
  EXPECT_LT(rank, order.size()) << attr;
  return a.labels[order[rank]];
}

// Replays the fixed drill-down script and returns the serialized view after
// every step. `cache` == nullptr replays uncached.
std::vector<std::string> ReplayDrillDown(const Table& table,
                                         const std::shared_ptr<ViewCache>& cache,
                                         size_t num_threads) {
  CadViewOptions o;
  o.max_compare_attrs = 4;
  o.iunits_per_value = 2;
  o.seed = 7;
  o.num_threads = num_threads;
  auto session = TpFacetSession::Create(&table, DiscretizerOptions{}, o);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return {};
  if (cache != nullptr) session->SetViewCache(cache, "mushroom");

  const DiscretizedTable& dt = session->facets().discretized();
  const std::string odor0 = FrequentLabel(dt, "Odor", 0);
  const std::string odor1 = FrequentLabel(dt, "Odor", 1);
  const std::string bruises = FrequentLabel(dt, "Bruises", 0);
  const std::string gill = FrequentLabel(dt, "GillColor", 0);
  const std::string spore = FrequentLabel(dt, "SporePrintColor", 0);
  const std::string pclass = FrequentLabel(dt, "Class", 0);

  TpFacetSession& s = *session;
  const std::vector<std::pair<const char*, std::function<Status()>>> script = {
      {"pivot Class", [&] { return s.SetPivot("Class"); }},
      {"select Odor#0", [&] { return s.SelectValue("Odor", odor0); }},
      {"widen Odor#1", [&] { return s.SelectValue("Odor", odor1); }},
      {"select Bruises#0", [&] { return s.SelectValue("Bruises", bruises); }},
      {"select GillColor#0", [&] { return s.SelectValue("GillColor", gill); }},
      {"undo", [&] { return s.Undo(); }},
      {"select SporePrint#0",
       [&] { return s.SelectValue("SporePrintColor", spore); }},
      {"deselect Odor#1", [&] { return s.DeselectValue("Odor", odor1); }},
      {"restrict pivot values",
       [&] {
         s.SetPivotValues({pclass});
         return Status::OK();
       }},
      {"all pivot values",
       [&] {
         s.SetPivotValues({});
         return Status::OK();
       }},
  };

  std::vector<std::string> serialized;
  for (const auto& [name, step] : script) {
    Status st = step();
    EXPECT_TRUE(st.ok()) << name << ": " << st.ToString();
    if (!st.ok()) return serialized;
    auto view = s.View();
    EXPECT_TRUE(view.ok()) << name << ": " << view.status().ToString();
    if (!view.ok()) return serialized;
    serialized.push_back(SerializeStable(**view));
  }
  return serialized;
}

TEST(ViewCacheDrillDownTest, ColdAndWarmCacheByteIdenticalAcrossThreads) {
  Table table = GenerateMushrooms(1200);
  const std::vector<std::string> baseline = ReplayDrillDown(table, nullptr, 1);
  ASSERT_EQ(baseline.size(), 10u);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    // Uncached replay at this thread count reproduces the serial baseline.
    EXPECT_EQ(ReplayDrillDown(table, nullptr, threads), baseline);

    // Cold cache: every step builds (or drill-back-hits) and inserts.
    auto cache = std::make_shared<ViewCache>();
    EXPECT_EQ(ReplayDrillDown(table, cache, threads), baseline);
    const ViewCacheStats cold = cache->stats();
    EXPECT_GT(cold.inserts, 0u);
    // The undo step returns to an already-cached context.
    EXPECT_GT(cold.hits, 0u);
    // Step 2 strictly refines step 1's empty selection: the rebuild was
    // seeded from cached partition row lists.
    EXPECT_GT(cold.refinement_seeds, 0u);

    // Warm: a fresh session sharing the populated cache serves hits only.
    EXPECT_EQ(ReplayDrillDown(table, cache, threads), baseline);
    const ViewCacheStats warm = cache->stats();
    EXPECT_GT(warm.hits, cold.hits);
    EXPECT_EQ(warm.misses, cold.misses);
  }
}

TEST(ViewCacheDrillDownTest, PartiallyEvictedCacheStaysByteIdentical) {
  Table table = GenerateMushrooms(1200);
  const std::vector<std::string> baseline = ReplayDrillDown(table, nullptr, 1);
  ASSERT_EQ(baseline.size(), 10u);

  // A budget far below the script's working set forces eviction churn: some
  // steps hit, some rebuild, and the interleaving must not leak into output.
  auto cache = std::make_shared<ViewCache>(48u * 1024);
  EXPECT_EQ(ReplayDrillDown(table, cache, 1), baseline);
  EXPECT_EQ(ReplayDrillDown(table, cache, 2), baseline);
  const ViewCacheStats stats = cache->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_in_use, stats.byte_budget);
}

TEST(ViewCacheDrillDownTest, InvalidationForcesRebuildWithIdenticalOutput) {
  Table table = GenerateMushrooms(1200);
  const std::vector<std::string> baseline = ReplayDrillDown(table, nullptr, 1);
  ASSERT_EQ(baseline.size(), 10u);

  auto cache = std::make_shared<ViewCache>();
  EXPECT_EQ(ReplayDrillDown(table, cache, 1), baseline);
  cache->InvalidateDataset("mushroom");
  EXPECT_EQ(cache->stats().entries, 0u);
  EXPECT_EQ(ReplayDrillDown(table, cache, 1), baseline);
}

}  // namespace
}  // namespace dbx
