// Unit tests for src/relation: schema, columns, tables, predicates, CSV.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "src/relation/csv.h"
#include "src/relation/predicate.h"
#include "src/relation/table.h"

namespace dbx {
namespace {

Schema CarSchema() {
  return std::move(Schema::Make({
                       {"Make", AttrType::kCategorical, true},
                       {"Price", AttrType::kNumeric, true},
                       {"Engine", AttrType::kCategorical, false},
                   }))
      .value();
}

Table SmallCars() {
  Table t(CarSchema());
  EXPECT_TRUE(t.AppendRow({Value("Ford"), Value(20000.0), Value("V6")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Jeep"), Value(25000.0), Value("V8")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Ford"), Value(15000.0), Value("V4")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Honda"), Value::Null(), Value("V4")}).ok());
  return t;
}

// --- Schema ------------------------------------------------------------------

TEST(SchemaTest, LookupByName) {
  Schema s = CarSchema();
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(*s.IndexOf("Price"), 1u);
  EXPECT_FALSE(s.IndexOf("Nope").has_value());
  EXPECT_TRUE(s.Contains("Engine"));
  EXPECT_FALSE(s.attr(2).queriable);
}

TEST(SchemaTest, RejectsDuplicates) {
  auto r = Schema::Make({{"A", AttrType::kCategorical, true},
                         {"A", AttrType::kNumeric, true}});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(SchemaTest, RejectsEmptyName) {
  auto r = Schema::Make({{"", AttrType::kCategorical, true}});
  EXPECT_FALSE(r.ok());
}

// --- Column ------------------------------------------------------------------

TEST(ColumnTest, DictionaryInternsOnce) {
  Column c(AttrType::kCategorical);
  c.AppendString("x");
  c.AppendString("y");
  c.AppendString("x");
  EXPECT_EQ(c.DictSize(), 2u);
  EXPECT_EQ(c.CodeAt(0), c.CodeAt(2));
  EXPECT_EQ(c.DictString(c.CodeAt(1)), "y");
  EXPECT_EQ(c.CodeOf("x"), c.CodeAt(0));
  EXPECT_EQ(c.CodeOf("zzz"), kNullCode);
}

TEST(ColumnTest, NullHandlingBothTypes) {
  Column c(AttrType::kCategorical);
  c.AppendNull();
  EXPECT_TRUE(c.IsNullAt(0));
  EXPECT_TRUE(c.ValueAt(0).is_null());

  Column n(AttrType::kNumeric);
  n.AppendNull();
  n.AppendNumber(1.5);
  EXPECT_TRUE(n.IsNullAt(0));
  EXPECT_FALSE(n.IsNullAt(1));
  EXPECT_DOUBLE_EQ(n.ValueAt(1).AsNumber(), 1.5);
}

TEST(ColumnTest, AppendValueTypeChecked) {
  Column c(AttrType::kNumeric);
  EXPECT_FALSE(c.AppendValue(Value("not a number")));
  EXPECT_TRUE(c.AppendValue(Value(2.0)));
  EXPECT_TRUE(c.AppendValue(Value::Null()));
  EXPECT_EQ(c.size(), 2u);
}

TEST(ColumnTest, AppendCodesInternsOnFirstAppearance) {
  // Out-of-order dictionary with a duplicate ("x" twice) and an unused entry
  // ("unused"): the result must equal per-cell AppendString.
  const std::vector<std::string> dict = {"unused", "y", "x", "x"};
  const std::vector<int32_t> codes = {3, kNullCode, 1, 2, 3, 1};
  Column bulk(AttrType::kCategorical);
  bulk.AppendString("y");  // appends on top of existing entries
  ASSERT_TRUE(bulk.AppendCodes(codes, dict).ok());

  Column cells(AttrType::kCategorical);
  cells.AppendString("y");
  for (int32_t code : codes) {
    if (code == kNullCode) {
      cells.AppendNull();
    } else {
      cells.AppendString(dict[static_cast<size_t>(code)]);
    }
  }
  EXPECT_EQ(bulk.codes(), cells.codes());
  EXPECT_EQ(bulk.dict(), cells.dict());
  EXPECT_EQ(bulk.dict(), (std::vector<std::string>{"y", "x"}));
}

TEST(ColumnTest, AppendCodesRejectsOutOfRangeCodes) {
  Column c(AttrType::kCategorical);
  c.AppendString("a");
  EXPECT_TRUE(c.AppendCodes({0, 2}, {"a", "b"}).IsInvalidArgument());
  EXPECT_TRUE(c.AppendCodes({0, -7}, {"a", "b"}).IsInvalidArgument());
  EXPECT_TRUE(c.AppendCodes({0}, {}).IsInvalidArgument());
  // A rejected append leaves the column unchanged.
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.DictSize(), 1u);

  Column n(AttrType::kNumeric);
  EXPECT_TRUE(n.AppendCodes({0}, {"a"}).IsInvalidArgument());
  EXPECT_EQ(n.size(), 0u);
}

TEST(ColumnTest, AppendNumbersCanonicalizesNaN) {
  double payload_nan;
  const uint64_t bits = 0xfff4000000000123ULL;  // negative, signaling payload
  std::memcpy(&payload_nan, &bits, sizeof(bits));
  Column bulk(AttrType::kNumeric);
  bulk.AppendNumbers({1.5, payload_nan, -0.0});
  Column cells(AttrType::kNumeric);
  cells.AppendNumber(1.5);
  cells.AppendNull();
  cells.AppendNumber(-0.0);
  ASSERT_EQ(bulk.size(), 3u);
  EXPECT_TRUE(bulk.IsNullAt(1));
  EXPECT_EQ(std::memcmp(bulk.numbers().data(), cells.numbers().data(),
                        3 * sizeof(double)),
            0);
}

// --- Table -------------------------------------------------------------------

TEST(TableTest, AppendAndAccess) {
  Table t = SmallCars();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.At(1, 0).AsString(), "Jeep");
  EXPECT_DOUBLE_EQ(t.At(0, 1).AsNumber(), 20000.0);
  EXPECT_TRUE(t.At(3, 1).is_null());
}

TEST(TableTest, ArityMismatchRejected) {
  Table t(CarSchema());
  EXPECT_TRUE(t.AppendRow({Value("x")}).IsInvalidArgument());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, TypeMismatchLeavesTableUnchanged) {
  Table t(CarSchema());
  // Price is numeric; giving a string must not partially append.
  Status s = t.AppendRow({Value("Ford"), Value("oops"), Value("V6")});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.col(0).size(), 0u);
  EXPECT_EQ(t.col(1).size(), 0u);
}

/// One column per CarSchema attribute, each with `rows` cells.
std::vector<Column> CarColumns(size_t rows) {
  std::vector<Column> cols;
  cols.emplace_back(AttrType::kCategorical);
  cols.emplace_back(AttrType::kNumeric);
  cols.emplace_back(AttrType::kCategorical);
  for (size_t r = 0; r < rows; ++r) {
    cols[0].AppendString("Ford");
    cols[1].AppendNumber(static_cast<double>(r));
    cols[2].AppendNull();
  }
  return cols;
}

TEST(TableTest, FromColumnsBuildsTable) {
  auto t = Table::FromColumns(CarSchema(), CarColumns(3), 3);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->At(2, 0).AsString(), "Ford");
  EXPECT_DOUBLE_EQ(t->At(2, 1).AsNumber(), 2.0);
  EXPECT_TRUE(t->At(0, 2).is_null());
  // The table stays appendable.
  ASSERT_TRUE(t->AppendRow({Value("Jeep"), Value(9.0), Value("V8")}).ok());
  EXPECT_EQ(t->num_rows(), 4u);
}

TEST(TableTest, FromColumnsAcceptsZeroRows) {
  auto t = Table::FromColumns(CarSchema(), CarColumns(0), 0);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 0u);
  EXPECT_EQ(t->num_cols(), 3u);
}

TEST(TableTest, FromColumnsRejectsRaggedColumns) {
  std::vector<Column> cols = CarColumns(3);
  cols[1].AppendNumber(4.0);
  EXPECT_TRUE(Table::FromColumns(CarSchema(), std::move(cols), 3)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Table::FromColumns(CarSchema(), CarColumns(3), 2)
                  .status()
                  .IsInvalidArgument());
}

TEST(TableTest, FromColumnsRejectsSchemaMismatch) {
  std::vector<Column> swapped = CarColumns(2);
  std::swap(swapped[0], swapped[1]);
  EXPECT_TRUE(Table::FromColumns(CarSchema(), std::move(swapped), 2)
                  .status()
                  .IsInvalidArgument());
  std::vector<Column> short_by_one = CarColumns(2);
  short_by_one.pop_back();
  EXPECT_TRUE(Table::FromColumns(CarSchema(), std::move(short_by_one), 2)
                  .status()
                  .IsInvalidArgument());
}

TEST(TableTest, ColByName) {
  Table t = SmallCars();
  auto c = t.ColByName("Price");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->type(), AttrType::kNumeric);
  EXPECT_TRUE(t.ColByName("Nope").status().IsNotFound());
}

TEST(TableTest, AllRowsAscending) {
  Table t = SmallCars();
  RowSet rows = t.AllRows();
  ASSERT_EQ(rows.size(), 4u);
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], i);
}

// --- Predicate ---------------------------------------------------------------

RowSet Eval(PredicatePtr p, const Table& t) {
  auto r = Predicate::Evaluate(p.get(), TableSlice::All(t));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : RowSet{};
}

TEST(PredicateTest, CategoricalEquality) {
  Table t = SmallCars();
  EXPECT_EQ(Eval(MakeCmp("Make", CmpOp::kEq, Value("Ford")), t),
            (RowSet{0, 2}));
  EXPECT_EQ(Eval(MakeCmp("Make", CmpOp::kNe, Value("Ford")), t),
            (RowSet{1, 3}));
}

TEST(PredicateTest, NumericComparisons) {
  Table t = SmallCars();
  EXPECT_EQ(Eval(MakeCmp("Price", CmpOp::kGt, Value(18000.0)), t),
            (RowSet{0, 1}));
  EXPECT_EQ(Eval(MakeCmp("Price", CmpOp::kLe, Value(20000.0)), t),
            (RowSet{0, 2}));
  EXPECT_EQ(Eval(MakeCmp("Price", CmpOp::kEq, Value(25000.0)), t),
            (RowSet{1}));
}

TEST(PredicateTest, NullNeverMatchesComparison) {
  Table t = SmallCars();
  // Honda's price is null; no comparison admits it.
  EXPECT_EQ(Eval(MakeCmp("Price", CmpOp::kGe, Value(0.0)), t).size(), 3u);
  EXPECT_EQ(Eval(MakeCmp("Price", CmpOp::kLt, Value(1e9)), t).size(), 3u);
}

TEST(PredicateTest, Between) {
  Table t = SmallCars();
  EXPECT_EQ(Eval(MakeBetween("Price", 15000, 20000), t), (RowSet{0, 2}));
}

TEST(PredicateTest, InSet) {
  Table t = SmallCars();
  EXPECT_EQ(Eval(MakeIn("Make", {"Jeep", "Honda"}), t), (RowSet{1, 3}));
  EXPECT_TRUE(Eval(MakeIn("Make", {"Nothing"}), t).empty());
}

TEST(PredicateTest, BooleanCombinators) {
  Table t = SmallCars();
  std::vector<PredicatePtr> both;
  both.push_back(MakeCmp("Make", CmpOp::kEq, Value("Ford")));
  both.push_back(MakeCmp("Price", CmpOp::kLt, Value(18000.0)));
  EXPECT_EQ(Eval(MakeAnd(std::move(both)), t), (RowSet{2}));

  std::vector<PredicatePtr> either;
  either.push_back(MakeCmp("Make", CmpOp::kEq, Value("Jeep")));
  either.push_back(MakeCmp("Make", CmpOp::kEq, Value("Honda")));
  EXPECT_EQ(Eval(MakeOr(std::move(either)), t), (RowSet{1, 3}));

  EXPECT_EQ(Eval(MakeNot(MakeCmp("Make", CmpOp::kEq, Value("Ford"))), t),
            (RowSet{1, 3}));
  EXPECT_EQ(Eval(MakeTrue(), t).size(), 4u);
}

TEST(PredicateTest, BindErrors) {
  Table t = SmallCars();
  auto bad_attr = MakeCmp("Nope", CmpOp::kEq, Value("x"));
  EXPECT_TRUE(Predicate::Evaluate(bad_attr.get(), TableSlice::All(t))
                  .status()
                  .IsNotFound());

  auto bad_type = MakeCmp("Make", CmpOp::kLt, Value("x"));
  EXPECT_TRUE(Predicate::Evaluate(bad_type.get(), TableSlice::All(t))
                  .status()
                  .IsNotSupported());

  auto bad_value = MakeCmp("Price", CmpOp::kEq, Value("str"));
  EXPECT_TRUE(Predicate::Evaluate(bad_value.get(), TableSlice::All(t))
                  .status()
                  .IsInvalidArgument());

  auto bad_between = MakeBetween("Make", 0, 1);
  EXPECT_TRUE(Predicate::Evaluate(bad_between.get(), TableSlice::All(t))
                  .status()
                  .IsInvalidArgument());
}

TEST(PredicateTest, EvaluatesOnSliceOnly) {
  Table t = SmallCars();
  TableSlice slice{&t, {1, 2}};
  auto p = MakeCmp("Make", CmpOp::kEq, Value("Ford"));
  auto r = Predicate::Evaluate(p.get(), slice);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (RowSet{2}));
}

TEST(PredicateTest, ToStringRendersSqlish) {
  auto p = MakeAnd([] {
    std::vector<PredicatePtr> v;
    v.push_back(MakeCmp("Make", CmpOp::kEq, Value("Ford")));
    v.push_back(MakeBetween("Price", 1000, 2000));
    return v;
  }());
  EXPECT_EQ(p->ToString(), "(Make = 'Ford' AND Price BETWEEN 1000 AND 2000)");
}

// --- CSV ---------------------------------------------------------------------

TEST(CsvTest, RoundTrip) {
  Table t = SmallCars();
  std::string csv = ToCsvString(t);
  auto back = ParseCsvString(csv, t.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_cols(); ++c) {
      EXPECT_EQ(back->At(r, c).ToDisplay(), t.At(r, c).ToDisplay())
          << "cell " << r << "," << c;
    }
  }
}

TEST(CsvTest, QuotingHandlesCommasAndQuotes) {
  Schema s = std::move(Schema::Make({{"A", AttrType::kCategorical, true}}))
                 .value();
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("a,b \"c\"")}).ok());
  std::string csv = ToCsvString(t);
  auto back = ParseCsvString(csv, s);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->At(0, 0).AsString(), "a,b \"c\"");
}

TEST(CsvTest, EmptyCellsBecomeNulls) {
  Schema s = CarSchema();
  auto t = ParseCsvString("Make,Price,Engine\nFord,,V6\n", s);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->At(0, 1).is_null());
}

TEST(CsvTest, HeaderMismatchRejected) {
  Schema s = CarSchema();
  EXPECT_TRUE(ParseCsvString("Wrong,Price,Engine\n", s).status().IsCorruption());
  EXPECT_TRUE(ParseCsvString("", s).status().IsCorruption());
  EXPECT_TRUE(ParseCsvString("Make,Price\n", s).status().IsCorruption());
}

TEST(CsvTest, ArityMismatchRejected) {
  Schema s = CarSchema();
  auto r = ParseCsvString("Make,Price,Engine\nFord,1\n", s);
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(CsvTest, UnparsableNumberBecomesNull) {
  Schema s = CarSchema();
  auto t = ParseCsvString("Make,Price,Engine\nFord,abc,V6\n", s);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->At(0, 1).is_null());
}

TEST(CsvTest, FileRoundTrip) {
  Table t = SmallCars();
  std::string path = ::testing::TempDir() + "/dbx_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path, t.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), t.num_rows());
  std::remove(path.c_str());
  EXPECT_TRUE(ReadCsv("/no/such/file.csv", t.schema()).status().IsNotFound());
  EXPECT_TRUE(WriteCsv(t, "/no/such/dir/file.csv").IsNotFound());
}

TEST(CsvTest, CrlfAccepted) {
  Schema s = CarSchema();
  auto t = ParseCsvString("Make,Price,Engine\r\nFord,1,V6\r\n", s);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1u);
}

}  // namespace
}  // namespace dbx
