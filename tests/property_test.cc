// Property-based suites spanning modules: predicate algebra laws, CSV
// round-trips over randomized tables, and a CAD View invariant sweep over
// the full (k, l, c) option grid.

#include <gtest/gtest.h>

#include "src/core/cad_view_builder.h"
#include "src/core/iunit_similarity.h"
#include "src/data/used_cars.h"
#include "src/relation/csv.h"
#include "src/query/canonical.h"
#include "src/query/parser.h"
#include "src/relation/predicate.h"
#include "src/util/rng.h"

namespace dbx {
namespace {

// Random table with mixed types and occasional nulls.
Table RandomTable(size_t rows, uint64_t seed) {
  Schema s = std::move(Schema::Make({
                           {"C1", AttrType::kCategorical, true},
                           {"C2", AttrType::kCategorical, true},
                           {"N1", AttrType::kNumeric, true},
                           {"N2", AttrType::kNumeric, true},
                       }))
                 .value();
  Table t(s);
  Rng rng(seed);
  const char* words[] = {"alpha", "beta", "gamma", "delta,comma",
                         "quote\"inside", "", "multi word"};
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row(4);
    row[0] = rng.NextBool(0.05)
                 ? Value::Null()
                 : Value(words[rng.NextBounded(std::size(words))]);
    row[1] = Value(std::string(1, static_cast<char>('a' + rng.NextBounded(4))));
    row[2] = rng.NextBool(0.05) ? Value::Null()
                                : Value(rng.NextUniform(-100, 100));
    row[3] = Value(static_cast<double>(rng.NextInt(0, 9)));
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

// --- Predicate algebra ----------------------------------------------------------

class PredicateLawTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicateLawTest, DeMorganAndComplement) {
  Table t = RandomTable(300, GetParam());
  TableSlice all = TableSlice::All(t);

  auto p = [] { return MakeCmp("C2", CmpOp::kEq, Value("a")); };
  auto q = [] { return MakeCmp("N2", CmpOp::kGe, Value(5.0)); };

  // NOT (p AND q) == (NOT p) OR (NOT q).
  std::vector<PredicatePtr> both;
  both.push_back(p());
  both.push_back(q());
  auto lhs = MakeNot(MakeAnd(std::move(both)));

  std::vector<PredicatePtr> either;
  either.push_back(MakeNot(p()));
  either.push_back(MakeNot(q()));
  auto rhs = MakeOr(std::move(either));

  auto l = Predicate::Evaluate(lhs.get(), all);
  auto r = Predicate::Evaluate(rhs.get(), all);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*l, *r);

  // p OR NOT p covers every row (C2 is never null here).
  std::vector<PredicatePtr> cover;
  cover.push_back(p());
  cover.push_back(MakeNot(p()));
  auto total = MakeOr(std::move(cover));
  auto tr = Predicate::Evaluate(total.get(), all);
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(tr->size(), t.num_rows());

  // p AND NOT p covers nothing.
  std::vector<PredicatePtr> none;
  none.push_back(p());
  none.push_back(MakeNot(p()));
  auto empty = MakeAnd(std::move(none));
  auto er = Predicate::Evaluate(empty.get(), all);
  ASSERT_TRUE(er.ok());
  EXPECT_TRUE(er->empty());
}

TEST_P(PredicateLawTest, DoubleNegationIdentity) {
  Table t = RandomTable(200, GetParam() + 99);
  TableSlice all = TableSlice::All(t);
  auto once = MakeCmp("N1", CmpOp::kLt, Value(0.0));
  auto twice = MakeNot(MakeNot(MakeCmp("N1", CmpOp::kLt, Value(0.0))));
  auto a = Predicate::Evaluate(once.get(), all);
  auto b = Predicate::Evaluate(twice.get(), all);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateLawTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- CSV round-trip ----------------------------------------------------------------

class CsvRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTripTest, RandomTablesSurvive) {
  Table t = RandomTable(150, GetParam() * 31);
  std::string csv = ToCsvString(t);
  auto back = ParseCsvString(csv, t.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_cols(); ++c) {
      // Note: the empty string round-trips to null (CSV cannot distinguish
      // them); both display as "".
      EXPECT_EQ(back->At(r, c).ToDisplay(), t.At(r, c).ToDisplay())
          << "cell " << r << "," << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Canonical unparser fixed point ---------------------------------------------------
//
// For any statement built from the parser-expressible AST subset, the law
//   sql1 = StatementToSql(S); parse(sql1) = S2; StatementToSql(S2) == sql1
// must hold. The canonical text is part of the view-cache key, so a drift
// here silently corrupts cache identity (see regression below: embedded
// quotes were once re-emitted unescaped and failed to reparse at all).

/// Random WHERE predicate from the grammar the parser can express. And/Or
/// always get >= 2 children: the parser never produces 1-child conjunctions,
/// and their parenthesized unparse would not round-trip.
PredicatePtr RandomPredicate(Rng& rng, int depth) {
  static const char* kAttrs[] = {"Make", "Model", "Price", "Year", "Mileage",
                                 "Body_Type"};
  static const char* kStrings[] = {"Jeep",  "it's",     "two  words", "",
                                   "O'Br", "trailing'", "'lead",      "42"};
  auto attr = [&] { return std::string(kAttrs[rng.NextBounded(6)]); };
  auto str = [&] { return std::string(kStrings[rng.NextBounded(8)]); };
  // Nonnegative quarter-steps: ToDisplay prints them exactly ("7" / "7.250")
  // and the lexer reads both forms back to the same double.
  auto num = [&] { return static_cast<double>(rng.NextInt(0, 40)) * 0.25; };

  int pick = static_cast<int>(rng.NextBounded(depth > 0 ? 7 : 4));
  switch (pick) {
    case 0:
      return MakeCmp(attr(), static_cast<CmpOp>(rng.NextBounded(6)),
                     rng.NextBool() ? Value(str()) : Value(num()));
    case 1: {
      double lo = static_cast<double>(rng.NextInt(0, 50));
      return MakeBetween(attr(), lo,
                         lo + static_cast<double>(rng.NextInt(0, 50)));
    }
    case 2: {
      std::vector<std::string> values;
      for (int i = static_cast<int>(rng.NextInt(1, 3)); i > 0; --i) {
        values.push_back(str());
      }
      return MakeIn(attr(), std::move(values));
    }
    case 3:
      return MakeNot(RandomPredicate(rng, depth - 1));
    default: {  // AND / OR with 2-3 children
      std::vector<PredicatePtr> children;
      for (int i = static_cast<int>(rng.NextInt(2, 3)); i > 0; --i) {
        children.push_back(RandomPredicate(rng, depth - 1));
      }
      return pick <= 5 ? MakeAnd(std::move(children))
                       : MakeOr(std::move(children));
    }
  }
}

void ExpectFixedPoint(const Statement& stmt) {
  std::string sql1 = StatementToSql(stmt);
  auto reparsed = ParseStatement(sql1);
  ASSERT_TRUE(reparsed.ok()) << sql1 << "\n" << reparsed.status().ToString();
  EXPECT_EQ(StatementToSql(*reparsed), sql1);
}

class CanonicalFixedPointTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CanonicalFixedPointTest, RandomSelects) {
  Rng rng(GetParam() * 1031);
  for (int iter = 0; iter < 50; ++iter) {
    SelectStmt s;
    s.table = "Cars";
    if (rng.NextBool()) {
      s.star = true;
    } else {
      for (int i = static_cast<int>(rng.NextInt(1, 3)); i > 0; --i) {
        s.columns.push_back(rng.NextBool() ? "Make" : "Price");
      }
    }
    if (rng.NextBool(0.8)) s.where = RandomPredicate(rng, 3);
    if (rng.NextBool()) s.order_by.emplace_back("Price", rng.NextBool());
    if (rng.NextBool()) s.limit = rng.NextBounded(100);
    ExpectFixedPoint(Statement{std::move(s)});
  }
}

TEST_P(CanonicalFixedPointTest, RandomCadViews) {
  Rng rng(GetParam() * 7919);
  for (int iter = 0; iter < 50; ++iter) {
    CreateCadViewStmt s;
    s.view_name = "V1";
    s.pivot_attr = "Make";
    s.table = "Cars";
    if (rng.NextBool()) {
      s.compare_attrs = {"Price", "Year"};
    }
    if (rng.NextBool(0.8)) s.where = RandomPredicate(rng, 3);
    if (rng.NextBool()) s.limit_columns = 1 + rng.NextBounded(8);
    if (rng.NextBool()) s.iunits = 1 + rng.NextBounded(5);
    if (rng.NextBool()) s.order_by.emplace_back("Year", rng.NextBool());
    ExpectFixedPoint(Statement{std::move(s)});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalFixedPointTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(CanonicalFixedPointTest, QuoteEscapeRegression) {
  // An embedded quote must be re-escaped by the unparser ('' form). Before
  // QuoteSqlString, this emitted  s = 'it's quoted'  which fails to reparse.
  auto stmt = ParseStatement("SELECT * FROM T WHERE s = 'it''s quoted'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::string sql = StatementToSql(*stmt);
  EXPECT_NE(sql.find("'it''s quoted'"), std::string::npos) << sql;
  ExpectFixedPoint(*stmt);
}

// --- CAD View invariants over the option grid ----------------------------------------

struct GridCase {
  size_t k;
  size_t l;
  size_t c;
};

class CadViewGridTest : public ::testing::TestWithParam<GridCase> {
 protected:
  static void SetUpTestSuite() { table_ = new Table(GenerateUsedCars(3000, 3)); }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static Table* table_;
};

Table* CadViewGridTest::table_ = nullptr;

TEST_P(CadViewGridTest, InvariantsHold) {
  const GridCase& g = GetParam();
  CadViewOptions o;
  o.pivot_attr = "BodyType";
  o.max_compare_attrs = g.c;
  o.iunits_per_value = g.k;
  o.generated_iunits = g.l;
  o.seed = 11;
  auto view = BuildCadView(TableSlice::All(*table_), o);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  EXPECT_GE(view->compare_attrs.size(), 1u);
  EXPECT_LE(view->compare_attrs.size(), g.c);
  EXPECT_DOUBLE_EQ(view->tau,
                   0.7 * static_cast<double>(view->compare_attrs.size()));

  size_t total_rows = 0;
  for (const CadViewRow& row : view->rows) {
    total_rows += row.partition_size;
    EXPECT_LE(row.iunits.size(), g.k);
    if (row.partition_size > 0) {
      EXPECT_GE(row.iunits.size(), 1u);
    }

    size_t members = 0;
    for (size_t i = 0; i < row.iunits.size(); ++i) {
      const IUnit& u = row.iunits[i];
      members += u.size();
      // Uniform labeling: one cell + one frequency vector per compare attr.
      ASSERT_EQ(u.cells.size(), view->compare_attrs.size());
      ASSERT_EQ(u.attr_freqs.size(), view->compare_attrs.size());
      // Frequencies over a cell's attribute sum to the cluster size at most
      // (nulls may reduce it).
      for (const auto& freqs : u.attr_freqs) {
        double sum = 0;
        for (double f : freqs) sum += f;
        EXPECT_LE(sum, static_cast<double>(u.size()) + 1e-9);
      }
      // Ranked by score; diverse under tau.
      if (i > 0) {
        EXPECT_GE(row.iunits[i - 1].score, u.score);
      }
      for (size_t j = i + 1; j < row.iunits.size(); ++j) {
        EXPECT_LT(IUnitSimilarity(u, row.iunits[j]), view->tau);
      }
    }
    // Top-k IUnits cover at most the partition.
    EXPECT_LE(members, row.partition_size);
  }
  // Every row of the fragment carries some pivot value (BodyType non-null).
  EXPECT_EQ(total_rows, table_->num_rows());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CadViewGridTest,
    ::testing::Values(GridCase{1, 1, 1}, GridCase{1, 4, 3}, GridCase{2, 3, 2},
                      GridCase{3, 5, 4}, GridCase{3, 10, 6}, GridCase{6, 9, 5},
                      GridCase{4, 15, 8}, GridCase{2, 2, 10}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return "k" + std::to_string(info.param.k) + "_l" +
             std::to_string(info.param.l) + "_c" +
             std::to_string(info.param.c);
    });

}  // namespace
}  // namespace dbx
