// Tests for the synthetic datasets: shapes, determinism, and the statistical
// structure the paper's experiments rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "src/data/dataset.h"
#include "src/data/hotels.h"
#include "src/data/synthetic.h"
#include "src/data/mushroom.h"
#include "src/data/used_cars.h"
#include "src/stats/contingency.h"
#include "src/stats/discretizer.h"

namespace dbx {
namespace {

// --- UsedCars ------------------------------------------------------------------

TEST(UsedCarsTest, ShapeMatchesPaper) {
  Table t = GenerateUsedCars(1000, 7);
  EXPECT_EQ(t.num_rows(), 1000u);
  EXPECT_EQ(t.num_cols(), 11u);
  EXPECT_TRUE(t.schema().Contains("Make"));
  EXPECT_TRUE(t.schema().Contains("Price"));
  EXPECT_TRUE(t.schema().Contains("Mileage"));
}

TEST(UsedCarsTest, EngineIsHiddenAttribute) {
  Schema s = UsedCarSchema();
  auto idx = s.IndexOf("Engine");
  ASSERT_TRUE(idx.has_value());
  EXPECT_FALSE(s.attr(*idx).queriable);  // Limitation 2 substrate
}

TEST(UsedCarsTest, DeterministicForSeed) {
  Table a = GenerateUsedCars(500, 42);
  Table b = GenerateUsedCars(500, 42);
  for (size_t r = 0; r < 500; r += 37) {
    for (size_t c = 0; c < a.num_cols(); ++c) {
      EXPECT_EQ(a.At(r, c).ToDisplay(), b.At(r, c).ToDisplay());
    }
  }
  Table c = GenerateUsedCars(500, 43);
  bool differs = false;
  for (size_t r = 0; r < 500 && !differs; ++r) {
    differs = a.At(r, 0).ToDisplay() != c.At(r, 0).ToDisplay();
  }
  EXPECT_TRUE(differs);
}

TEST(UsedCarsTest, ValueSanity) {
  Table t = GenerateUsedCars(3000, 7);
  auto price = *t.ColByName("Price");
  auto mileage = *t.ColByName("Mileage");
  auto year = *t.ColByName("Year");
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_GE(price->NumberAt(r), 3000.0);
    EXPECT_GE(mileage->NumberAt(r), 0.0);
    EXPECT_GE(year->NumberAt(r), 2008.0);
    EXPECT_LE(year->NumberAt(r), 2013.0);
  }
}

TEST(UsedCarsTest, MakeDeterminesModel) {
  Table t = GenerateUsedCars(5000, 7);
  auto make = *t.ColByName("Make");
  auto model = *t.ColByName("Model");
  std::map<std::string, std::string> model_to_make;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string mk = make->ValueAt(r).AsString();
    std::string md = model->ValueAt(r).AsString();
    auto [it, inserted] = model_to_make.emplace(md, mk);
    EXPECT_EQ(it->second, mk) << "model " << md << " spans makes";
  }
  EXPECT_GT(model_to_make.size(), 30u);
}

TEST(UsedCarsTest, Table1MakesPresentWithSuvs) {
  Table t = GenerateUsedCars(10000, 7);
  auto make = *t.ColByName("Make");
  auto body = *t.ColByName("BodyType");
  std::set<std::string> suv_makes;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (body->ValueAt(r).AsString() == "SUV") {
      suv_makes.insert(make->ValueAt(r).AsString());
    }
  }
  for (const char* m : {"Chevrolet", "Ford", "Jeep", "Toyota", "Honda"}) {
    EXPECT_TRUE(suv_makes.count(m)) << m;
  }
}

TEST(UsedCarsTest, OlderCarsHaveMoreMiles) {
  Table t = GenerateUsedCars(8000, 7);
  auto mileage = *t.ColByName("Mileage");
  auto year = *t.ColByName("Year");
  double old_sum = 0, new_sum = 0;
  size_t old_n = 0, new_n = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (year->NumberAt(r) <= 2009) {
      old_sum += mileage->NumberAt(r);
      ++old_n;
    } else if (year->NumberAt(r) >= 2012) {
      new_sum += mileage->NumberAt(r);
      ++new_n;
    }
  }
  ASSERT_GT(old_n, 0u);
  ASSERT_GT(new_n, 0u);
  EXPECT_GT(old_sum / old_n, new_sum / new_n + 10000.0);
}

TEST(UsedCarsTest, MakeCardinalityLongTail) {
  Table t = GenerateUsedCars(20000, 7);
  auto make = *t.ColByName("Make");
  EXPECT_GE(make->DictSize(), 20u);
}

// --- Mushroom ------------------------------------------------------------------

TEST(MushroomTest, ShapeMatchesUci) {
  Table t = GenerateMushrooms(2000, 11);
  EXPECT_EQ(t.num_rows(), 2000u);
  EXPECT_EQ(t.num_cols(), 23u);
  EXPECT_TRUE(t.schema().Contains("Class"));
  EXPECT_TRUE(t.schema().Contains("Odor"));
  EXPECT_TRUE(t.schema().Contains("SporePrintColor"));
  for (const auto& a : t.schema().attrs()) {
    EXPECT_EQ(a.type, AttrType::kCategorical);
  }
}

TEST(MushroomTest, ClassBalanceRoughlyUci) {
  Table t = GenerateMushrooms(8124, 11);
  auto cls = *t.ColByName("Class");
  size_t edible = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (cls->ValueAt(r).AsString() == "edible") ++edible;
  }
  double frac = static_cast<double>(edible) / t.num_rows();
  EXPECT_GT(frac, 0.35);
  EXPECT_LT(frac, 0.70);
}

TEST(MushroomTest, OdorStronglyPredictsClass) {
  Table t = GenerateMushrooms(6000, 11);
  auto dt = DiscretizedTable::Build(TableSlice::All(t), DiscretizerOptions{});
  ASSERT_TRUE(dt.ok());
  auto cls_idx = dt->IndexOf("Class");
  auto odor_idx = dt->IndexOf("Odor");
  auto veil_idx = dt->IndexOf("VeilColor");
  ContingencyTable odor_ct = ContingencyTable::FromCodes(
      dt->attr(*cls_idx).codes, 2, dt->attr(*odor_idx).codes,
      dt->attr(*odor_idx).cardinality());
  ContingencyTable veil_ct = ContingencyTable::FromCodes(
      dt->attr(*cls_idx).codes, 2, dt->attr(*veil_idx).codes,
      dt->attr(*veil_idx).cardinality());
  EXPECT_GT(CramersV(odor_ct), 0.8);
  EXPECT_GT(CramersV(odor_ct), CramersV(veil_ct) + 0.3);
}

TEST(MushroomTest, FoulOdorMushroomsArePoisonous) {
  Table t = GenerateMushrooms(6000, 11);
  auto cls = *t.ColByName("Class");
  auto odor = *t.ColByName("Odor");
  size_t foul = 0, foul_poison = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (odor->ValueAt(r).AsString() == "foul") {
      ++foul;
      if (cls->ValueAt(r).AsString() == "poisonous") ++foul_poison;
    }
  }
  ASSERT_GT(foul, 100u);
  EXPECT_GT(static_cast<double>(foul_poison) / foul, 0.95);
}

TEST(MushroomTest, TaskConditionsNonEmpty) {
  // The study's alternative-condition targets must select something.
  Table t = GenerateMushrooms(8124, 11);
  auto stalk = *t.ColByName("StalkShape");
  auto spore = *t.ColByName("SporePrintColor");
  size_t hits = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (stalk->ValueAt(r).AsString() == "enlarged" &&
        spore->ValueAt(r).AsString() == "chocolate") {
      ++hits;
    }
  }
  EXPECT_GT(hits, 50u);
}

TEST(MushroomTest, Deterministic) {
  Table a = GenerateMushrooms(300, 5);
  Table b = GenerateMushrooms(300, 5);
  for (size_t r = 0; r < 300; r += 17) {
    for (size_t c = 0; c < a.num_cols(); ++c) {
      EXPECT_EQ(a.At(r, c).ToDisplay(), b.At(r, c).ToDisplay());
    }
  }
}

// --- Hotels --------------------------------------------------------------------

TEST(HotelsTest, ShapeAndDomains) {
  Table t = GenerateHotels(2000, 21);
  EXPECT_EQ(t.num_rows(), 2000u);
  EXPECT_EQ(t.num_cols(), 10u);
  auto stars = *t.ColByName("Stars");
  auto price = *t.ColByName("Price");
  auto dist = *t.ColByName("DistanceToCenter");
  auto review = *t.ColByName("ReviewScore");
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_GT(price->NumberAt(r), 0.0);
    EXPECT_GT(dist->NumberAt(r), 0.0);
    EXPECT_GE(review->NumberAt(r), 2.0);
    EXPECT_LE(review->NumberAt(r), 10.0);
  }
  EXPECT_GE(stars->DictSize(), 5u);  // "1".."5" + "unrated"
}

TEST(HotelsTest, FiveStarsClusterInFinancialDistrict) {
  // The intro's observation: the 5-star hotels concentrate in the financial
  // district.
  Table t = GenerateHotels(6000, 21);
  auto stars = *t.ColByName("Stars");
  auto district = *t.ColByName("District");
  std::map<std::string, size_t> five_star_by_district;
  size_t five_total = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (stars->ValueAt(r).AsString() == "5") {
      ++five_star_by_district[district->ValueAt(r).AsString()];
      ++five_total;
    }
  }
  ASSERT_GT(five_total, 50u);
  EXPECT_GT(static_cast<double>(five_star_by_district["Financial"]) /
                static_cast<double>(five_total),
            0.35);
}

TEST(HotelsTest, LocationPriceTradeoffForHotelsNotHostels) {
  Table t = GenerateHotels(6000, 21);
  auto type = *t.ColByName("PropertyType");
  auto price = *t.ColByName("Price");
  auto dist = *t.ColByName("DistanceToCenter");
  // Pearson correlation of price vs distance, split by segment.
  auto corr = [&](bool hostel) {
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0, n = 0;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      bool is_hostel = type->ValueAt(r).AsString() == "Hostel";
      if (is_hostel != hostel) continue;
      double x = dist->NumberAt(r), y = price->NumberAt(r);
      sx += x; sy += y; sxx += x * x; syy += y * y; sxy += x * y; ++n;
    }
    double cov = sxy / n - (sx / n) * (sy / n);
    double vx = sxx / n - (sx / n) * (sx / n);
    double vy = syy / n - (sy / n) * (sy / n);
    return cov / std::sqrt(vx * vy);
  };
  double hotel_corr = corr(false);
  double hostel_corr = corr(true);
  EXPECT_LT(hotel_corr, -0.15);                    // central hotels cost more
  EXPECT_LT(std::fabs(hostel_corr), 0.12);         // hostels decoupled
}

TEST(HotelsTest, Deterministic) {
  Table a = GenerateHotels(200, 4);
  Table b = GenerateHotels(200, 4);
  for (size_t r = 0; r < 200; r += 13) {
    for (size_t c = 0; c < a.num_cols(); ++c) {
      EXPECT_EQ(a.At(r, c).ToDisplay(), b.At(r, c).ToDisplay());
    }
  }
}

// --- Synthetic wide tables ---------------------------------------------------------

TEST(SyntheticTest, ShapeFollowsSpec) {
  SyntheticSpec spec;
  spec.rows = 500;
  spec.categorical_attrs = 7;
  spec.numeric_attrs = 3;
  spec.cardinality = 5;
  auto t = GenerateSynthetic(spec);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 500u);
  EXPECT_EQ(t->num_cols(), 10u);
  EXPECT_EQ(t->schema().attr(0).name, "C0");
  EXPECT_EQ(t->schema().attr(7).type, AttrType::kNumeric);
  auto c1 = *t->ColByName("C1");
  EXPECT_LE(c1->DictSize(), 5u);
}

TEST(SyntheticTest, FidelityControlsClusterStructure) {
  auto purity_of = [](double fidelity) {
    SyntheticSpec spec;
    spec.rows = 3000;
    spec.categorical_attrs = 6;
    spec.cluster_fidelity = fidelity;
    spec.clusters = 4;
    Table t = std::move(GenerateSynthetic(spec)).value();
    // Fraction of C1 cells equal to the modal value of their C0 cluster.
    auto c0 = *t.ColByName("C0");
    auto c1 = *t.ColByName("C1");
    std::map<std::string, std::map<std::string, size_t>> counts;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      ++counts[c0->ValueAt(r).AsString()][c1->ValueAt(r).AsString()];
    }
    size_t modal = 0;
    for (const auto& [cluster, dist] : counts) {
      size_t best = 0;
      for (const auto& [value, n] : dist) best = std::max(best, n);
      modal += best;
    }
    return static_cast<double>(modal) / static_cast<double>(t.num_rows());
  };
  EXPECT_GT(purity_of(0.95), purity_of(0.3) + 0.2);
}

TEST(SyntheticTest, DegenerateSpecsRejected) {
  SyntheticSpec spec;
  spec.rows = 0;
  EXPECT_TRUE(GenerateSynthetic(spec).status().IsInvalidArgument());
  spec = SyntheticSpec{};
  spec.cardinality = 1;
  EXPECT_TRUE(GenerateSynthetic(spec).status().IsInvalidArgument());
  spec = SyntheticSpec{};
  spec.cluster_fidelity = 1.5;
  EXPECT_TRUE(GenerateSynthetic(spec).status().IsInvalidArgument());
  spec = SyntheticSpec{};
  spec.categorical_attrs = 0;
  EXPECT_TRUE(GenerateSynthetic(spec).status().IsInvalidArgument());
}

TEST(SyntheticTest, Deterministic) {
  SyntheticSpec spec;
  spec.rows = 200;
  auto a = GenerateSynthetic(spec);
  auto b = GenerateSynthetic(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t r = 0; r < 200; r += 11) {
    for (size_t c = 0; c < a->num_cols(); ++c) {
      EXPECT_EQ(a->At(r, c).ToDisplay(), b->At(r, c).ToDisplay());
    }
  }
}

// --- Scaled used-car generator ---------------------------------------------------

// Golden row fingerprints (FNV-1a over rendered values, schema order) pin the
// scaled generator's output at two scales. Per-row seeding makes each row
// O(1) to reach, so a 1M-scale golden costs microseconds, and the prefix
// property means the 10K goldens are literally rows of every larger instance
// with the same seed.
constexpr uint64_t kScaled10KSeed = 7;

TEST(ScaledUsedCarsTest, PrefixProperty) {
  ScaledUsedCars small(100, kScaled10KSeed);
  ScaledUsedCars large(100000, kScaled10KSeed);
  for (size_t i : {size_t{0}, size_t{1}, size_t{42}, size_t{99}}) {
    EXPECT_EQ(small.RowFingerprint(i), large.RowFingerprint(i)) << "row " << i;
  }
}

TEST(ScaledUsedCarsTest, MaterializeMatchesGenerateRow) {
  ScaledUsedCars gen(300, 5);
  auto table = gen.Materialize();
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_rows(), 300u);
  ASSERT_EQ(table->num_cols(), 11u);
  for (size_t i = 0; i < 300; i += 29) {
    UsedCarRow r = gen.GenerateRow(i);
    const UsedCarModelSpec& m = UsedCarModels()[r.model_idx];
    EXPECT_EQ(table->At(i, 0).AsString(), m.make);
    EXPECT_EQ(table->At(i, 1).AsString(), m.model);
    EXPECT_EQ(table->At(i, 6).AsNumber(), r.price);
    EXPECT_EQ(table->At(i, 8).AsNumber(), static_cast<double>(r.year));
  }
}

TEST(ScaledUsedCarsTest, GoldenFingerprints10K) {
  ScaledUsedCars gen(10000, kScaled10KSeed);
  EXPECT_EQ(gen.RowFingerprint(0), 8729064608167067213ULL);
  EXPECT_EQ(gen.RowFingerprint(1), 14817515657620075477ULL);
  EXPECT_EQ(gen.RowFingerprint(9999), 14274994860044901425ULL);
  uint64_t agg = 0;
  for (size_t i = 0; i < gen.num_rows(); i += 97) {
    agg ^= gen.RowFingerprint(i);
  }
  EXPECT_EQ(agg, 17941898387973014028ULL);
}

TEST(ScaledUsedCarsTest, GoldenFingerprints1M) {
  ScaledUsedCars gen(1000000, kScaled10KSeed);
  // Same seed, larger scale: row 0 keeps the 10K fingerprint (prefix
  // property made observable in the goldens).
  EXPECT_EQ(gen.RowFingerprint(0), 8729064608167067213ULL);
  EXPECT_EQ(gen.RowFingerprint(123456), 5379093808169835640ULL);
  EXPECT_EQ(gen.RowFingerprint(999999), 11083188769024652066ULL);
  uint64_t agg = 0;
  for (size_t i = 0; i < gen.num_rows(); i += 9973) {
    agg ^= gen.RowFingerprint(i);
  }
  EXPECT_EQ(agg, 15573333469258059151ULL);
}

TEST(ScaledUsedCarsTest, StreamingDiscretizeMatchesBuildAcrossShards) {
  // With bin_sample == 0 the streaming discretization must equal
  // DiscretizedTable::Build over the materialized table byte for byte, for
  // every bin strategy at every shard x thread combination.
  ScaledUsedCars gen(10000, kScaled10KSeed);
  auto table = gen.Materialize();
  ASSERT_TRUE(table.ok());

  for (BinStrategy strategy : {BinStrategy::kEquiWidth,
                               BinStrategy::kEquiDepth,
                               BinStrategy::kVOptimal}) {
    DiscretizerOptions discretizer;
    discretizer.strategy = strategy;
    auto built = DiscretizedTable::Build(TableSlice::All(*table), discretizer);
    ASSERT_TRUE(built.ok());
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ScaledDiscretizeOptions opts;
        opts.discretizer = discretizer;
        opts.num_shards = shards;
        opts.num_threads = threads;
        opts.bin_sample = 0;
        auto streamed = gen.Discretize(opts);
        ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
        ASSERT_EQ(streamed->num_rows(), built->num_rows());
        ASSERT_EQ(streamed->num_attrs(), built->num_attrs());
        for (size_t a = 0; a < built->num_attrs(); ++a) {
          const DiscreteAttr& want = built->attr(a);
          const DiscreteAttr& got = streamed->attr(a);
          EXPECT_EQ(got.name, want.name);
          EXPECT_EQ(got.queriable, want.queriable);
          EXPECT_EQ(got.labels, want.labels)
              << "attr " << want.name << " shards=" << shards << " "
              << BinStrategyName(strategy);
          EXPECT_EQ(got.codes, want.codes)
              << "attr " << want.name << " shards=" << shards
              << " threads=" << threads << " " << BinStrategyName(strategy);
          EXPECT_EQ(got.bins.edges, want.bins.edges)
              << "attr " << want.name << " " << BinStrategyName(strategy);
        }
      }
    }
  }
}

TEST(ScaledUsedCarsTest, SampledBinsShardInvariant) {
  // bin_sample > 0 approximates the bin edges but must stay independent of
  // the shard decomposition.
  ScaledUsedCars gen(20000, 3);
  ScaledDiscretizeOptions opts;
  opts.bin_sample = 1024;
  opts.num_shards = 1;
  auto base = gen.Discretize(opts);
  ASSERT_TRUE(base.ok());
  for (size_t shards : {size_t{2}, size_t{8}}) {
    opts.num_shards = shards;
    opts.num_threads = 4;
    auto other = gen.Discretize(opts);
    ASSERT_TRUE(other.ok());
    for (size_t a = 0; a < base->num_attrs(); ++a) {
      EXPECT_EQ(other->attr(a).labels, base->attr(a).labels);
      EXPECT_EQ(other->attr(a).codes, base->attr(a).codes)
          << "attr " << base->attr(a).name << " shards=" << shards;
    }
  }
}

// --- Dataset registry ------------------------------------------------------------

TEST(DatasetTest, LoadByNameCaseInsensitive) {
  auto d = LoadDataset("usedcars", 100);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->name, "UsedCars");
  EXPECT_EQ(d->table->num_rows(), 100u);

  auto m = LoadDataset("MUSHROOM", 50);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->table->num_cols(), 23u);
}

TEST(DatasetTest, DefaultSizesMatchPaper) {
  auto d = LoadDataset("Mushroom");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->table->num_rows(), 8124u);
  auto h = LoadDataset("hotels");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->table->num_rows(), 6000u);
}

TEST(DatasetTest, UnknownNameFails) {
  EXPECT_TRUE(LoadDataset("nope").status().IsNotFound());
  EXPECT_EQ(BuiltinDatasetNames().size(), 3u);
}

}  // namespace
}  // namespace dbx
