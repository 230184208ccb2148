// Tests for the CADVIEW SQL dialect: lexer, parser, engine execution, and the
// canonical unparser's print/parse round-trip properties.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cad_view_io.h"
#include "src/core/view_cache.h"
#include "src/data/used_cars.h"
#include "src/query/canonical.h"
#include "src/query/engine.h"
#include "src/query/lexer.h"
#include "src/query/parser.h"
#include "src/util/rng.h"

namespace dbx {
namespace {

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, NumbersWithSuffixes) {
  auto toks = Lex("10K 1.5M 42 3.25");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 5u);  // incl. kEnd
  EXPECT_DOUBLE_EQ((*toks)[0].number, 10000.0);
  EXPECT_DOUBLE_EQ((*toks)[1].number, 1500000.0);
  EXPECT_DOUBLE_EQ((*toks)[2].number, 42.0);
  EXPECT_DOUBLE_EQ((*toks)[3].number, 3.25);
}

TEST(LexerTest, StringsWithEscapes) {
  auto toks = Lex("'hello world' 'it''s'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "hello world");
  EXPECT_EQ((*toks)[1].text, "it's");
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto toks = Lex("select FROM WhErE cadview");
  ASSERT_TRUE(toks.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*toks)[i].type, TokenType::kKeyword);
  }
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[3].text, "CADVIEW");
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto toks = Lex("BodyType Mileage");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*toks)[0].text, "BodyType");
}

TEST(LexerTest, Operators) {
  auto toks = Lex("= != <> <= >= < > ( ) , * ;");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "=");
  EXPECT_EQ((*toks)[1].text, "!=");
  EXPECT_EQ((*toks)[2].text, "!=");  // <> normalized
  EXPECT_EQ((*toks)[3].text, "<=");
  EXPECT_EQ((*toks)[4].text, ">=");
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Lex("'unterminated").status().IsInvalidArgument());
  EXPECT_TRUE(Lex("a @ b").status().IsInvalidArgument());
}

// --- Parser ------------------------------------------------------------------

TEST(ParserTest, FullCreateCadView) {
  auto stmt = ParseStatement(
      "CREATE CADVIEW CompareMakes AS SET pivot = Make SELECT Price "
      "FROM UsedCars WHERE Mileage BETWEEN 10K AND 30K AND "
      "Transmission = Automatic AND BodyType = SUV AND "
      "(Make = Jeep OR Make = Toyota) LIMIT COLUMNS 5 IUNITS 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto* c = std::get_if<CreateCadViewStmt>(&*stmt);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->view_name, "CompareMakes");
  EXPECT_EQ(c->pivot_attr, "Make");
  EXPECT_EQ(c->compare_attrs, std::vector<std::string>{"Price"});
  EXPECT_EQ(c->table, "UsedCars");
  ASSERT_NE(c->where, nullptr);
  EXPECT_EQ(*c->limit_columns, 5u);
  EXPECT_EQ(*c->iunits, 3u);
}

TEST(ParserTest, CreateCadViewDefaultsOptional) {
  auto stmt = ParseStatement(
      "CREATE CADVIEW v AS SET pivot = Make SELECT * FROM T");
  ASSERT_TRUE(stmt.ok());
  auto* c = std::get_if<CreateCadViewStmt>(&*stmt);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->compare_attrs.empty());
  EXPECT_FALSE(c->limit_columns.has_value());
  EXPECT_FALSE(c->iunits.has_value());
  EXPECT_EQ(c->where, nullptr);
}

TEST(ParserTest, CreateCadViewOrderBy) {
  auto stmt = ParseStatement(
      "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM T "
      "ORDER BY Price ASC, Year DESC");
  ASSERT_TRUE(stmt.ok());
  auto* c = std::get_if<CreateCadViewStmt>(&*stmt);
  ASSERT_EQ(c->order_by.size(), 2u);
  EXPECT_EQ(c->order_by[0], (std::pair<std::string, bool>{"Price", true}));
  EXPECT_EQ(c->order_by[1], (std::pair<std::string, bool>{"Year", false}));
}

TEST(ParserTest, Highlight) {
  auto stmt = ParseStatement(
      "HIGHLIGHT SIMILAR IUNITS IN CompareMakes "
      "WHERE SIMILARITY(Chevrolet, 3) > 3.5");
  ASSERT_TRUE(stmt.ok());
  auto* h = std::get_if<HighlightStmt>(&*stmt);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->view_name, "CompareMakes");
  EXPECT_EQ(h->pivot_value, "Chevrolet");
  EXPECT_EQ(h->iunit_rank, 3u);
  EXPECT_DOUBLE_EQ(h->threshold, 3.5);
}

TEST(ParserTest, Reorder) {
  auto stmt = ParseStatement(
      "REORDER ROWS IN CompareMakes ORDER BY SIMILARITY(Chevrolet) DESC");
  ASSERT_TRUE(stmt.ok());
  auto* r = std::get_if<ReorderStmt>(&*stmt);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->view_name, "CompareMakes");
  EXPECT_EQ(r->pivot_value, "Chevrolet");
  EXPECT_TRUE(r->descending);
}

TEST(ParserTest, SelectStarAndColumns) {
  auto star = ParseStatement("SELECT * FROM T WHERE a = 1 LIMIT 10;");
  ASSERT_TRUE(star.ok());
  auto* s = std::get_if<SelectStmt>(&*star);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->star);
  EXPECT_EQ(*s->limit, 10u);

  auto cols = ParseStatement("SELECT a, b FROM T");
  ASSERT_TRUE(cols.ok());
  auto* c = std::get_if<SelectStmt>(&*cols);
  EXPECT_EQ(c->columns, (std::vector<std::string>{"a", "b"}));
}

TEST(ParserTest, WherePrecedenceAndNot) {
  auto stmt =
      ParseStatement("SELECT * FROM T WHERE a = 1 OR b = 2 AND NOT c = 3");
  ASSERT_TRUE(stmt.ok());
  auto* s = std::get_if<SelectStmt>(&*stmt);
  // AND binds tighter than OR.
  EXPECT_EQ(s->where->ToString(), "(a = 1 OR (b = 2 AND NOT c = 3))");
}

TEST(ParserTest, InAndNotIn) {
  auto stmt = ParseStatement(
      "SELECT * FROM T WHERE Make IN (Jeep, 'Ford') AND Color NOT IN (red)");
  ASSERT_TRUE(stmt.ok());
  auto* s = std::get_if<SelectStmt>(&*stmt);
  EXPECT_NE(s->where->ToString().find("Make IN ('Jeep', 'Ford')"),
            std::string::npos);
  EXPECT_NE(s->where->ToString().find("NOT Color IN ('red')"),
            std::string::npos);
}

TEST(ParserTest, BarewordsAndBooleansAreStrings) {
  auto stmt =
      ParseStatement("SELECT * FROM T WHERE Bruises = true AND Make = Jeep");
  ASSERT_TRUE(stmt.ok());
  auto* s = std::get_if<SelectStmt>(&*stmt);
  EXPECT_EQ(s->where->ToString(), "(Bruises = 'true' AND Make = 'Jeep')");
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_TRUE(ParseStatement("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("DROP TABLE x").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("SELECT FROM T").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("SELECT * FROM").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("SELECT * FROM T WHERE").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("SELECT * FROM T extra").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ParseStatement("CREATE CADVIEW v AS SELECT a FROM T").status()
          .IsInvalidArgument());  // missing SET pivot
  EXPECT_TRUE(
      ParseStatement("SELECT * FROM T WHERE a BETWEEN 5 AND 1").status()
          .IsInvalidArgument());  // bounds out of order
  EXPECT_TRUE(
      ParseStatement("HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(x, 0) > 1")
          .status()
          .IsInvalidArgument());  // rank must be >= 1
}

TEST(ParserTest, AggregateSelect) {
  auto stmt = ParseStatement(
      "SELECT Make, COUNT(*), AVG(Price) FROM T GROUP BY Make "
      "ORDER BY count DESC LIMIT 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto* s = std::get_if<SelectStmt>(&*stmt);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->is_aggregate());
  ASSERT_EQ(s->items.size(), 3u);
  EXPECT_FALSE(s->items[0].fn.has_value());
  EXPECT_EQ(*s->items[1].fn, AggFn::kCount);
  EXPECT_TRUE(s->items[1].attr.empty());
  EXPECT_EQ(*s->items[2].fn, AggFn::kAvg);
  EXPECT_EQ(s->items[2].attr, "Price");
  EXPECT_EQ(s->group_by, std::vector<std::string>{"Make"});
  EXPECT_EQ(s->order_by[0].first, "count");
}

TEST(ParserTest, AggregateErrors) {
  // Non-aggregate column outside GROUP BY.
  EXPECT_TRUE(ParseStatement("SELECT Make, COUNT(*) FROM T GROUP BY Color")
                  .status()
                  .IsInvalidArgument());
  // SELECT * with GROUP BY.
  EXPECT_TRUE(ParseStatement("SELECT * FROM T GROUP BY Make")
                  .status()
                  .IsInvalidArgument());
  // Malformed aggregate.
  EXPECT_TRUE(ParseStatement("SELECT AVG Price FROM T").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("SELECT AVG(*) FROM T").status()
                  .IsInvalidArgument());
}

TEST(ParserTest, ExplainAnalyze) {
  auto full = ParseStatement("EXPLAIN ANALYZE SELECT * FROM T");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const auto* stmt = std::get_if<ExplainStmt>(&*full);
  ASSERT_NE(stmt, nullptr);
  EXPECT_TRUE(stmt->analyze);
  ASSERT_NE(stmt->inner, nullptr);
  EXPECT_TRUE(std::holds_alternative<SelectStmt>(stmt->inner->get()));
  EXPECT_EQ(StatementToSql(*full), "EXPLAIN ANALYZE SELECT * FROM T");

  // Bare EXPLAIN parses too (treated as a synonym at execution time).
  auto bare = ParseStatement("EXPLAIN SELECT * FROM T");
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(std::get_if<ExplainStmt>(&*bare)->analyze);
  EXPECT_EQ(StatementToSql(*bare), "EXPLAIN SELECT * FROM T");

  EXPECT_TRUE(ParseStatement("EXPLAIN ANALYZE EXPLAIN SELECT * FROM T")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("EXPLAIN").status().IsInvalidArgument());
}

// --- Engine ------------------------------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { table_ = new Table(GenerateUsedCars(3000, 3)); }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  void SetUp() override { engine_.RegisterTable("UsedCars", table_); }

  Engine engine_;
  static Table* table_;
};

Table* EngineTest::table_ = nullptr;

TEST_F(EngineTest, SelectCountsRows) {
  auto r = engine_.ExecuteSql(
      "SELECT * FROM UsedCars WHERE BodyType = SUV LIMIT 50");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->kind, ExecOutcome::Kind::kSelection);
  EXPECT_EQ(r->rows.size(), 50u);
  EXPECT_EQ(r->projected_columns.size(), table_->num_cols());
}

TEST_F(EngineTest, SelectOrderBySortsRows) {
  auto r = engine_.ExecuteSql(
      "SELECT Make, Price FROM UsedCars WHERE BodyType = SUV "
      "ORDER BY Price DESC LIMIT 20");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto price_idx = table_->schema().IndexOf("Price");
  double prev = 1e18;
  for (uint32_t row : r->rows) {
    double p = table_->col(*price_idx).NumberAt(row);
    EXPECT_LE(p, prev);
    prev = p;
  }

  auto asc = engine_.ExecuteSql(
      "SELECT * FROM UsedCars ORDER BY Make ASC, Price ASC LIMIT 50");
  ASSERT_TRUE(asc.ok());
  auto make_idx = table_->schema().IndexOf("Make");
  std::string prev_make;
  double prev_price = -1.0;
  for (uint32_t row : asc->rows) {
    std::string m = table_->At(row, *make_idx).AsString();
    double p = table_->col(*price_idx).NumberAt(row);
    if (m == prev_make) {
      EXPECT_GE(p, prev_price);
    } else {
      EXPECT_GE(m, prev_make);
      prev_make = m;
    }
    prev_price = p;
  }
}

TEST_F(EngineTest, AggregateGroupByComputesStats) {
  auto r = engine_.ExecuteSql(
      "SELECT BodyType, COUNT(*), AVG(Price), MIN(Price), MAX(Price) "
      "FROM UsedCars GROUP BY BodyType ORDER BY count DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->derived, nullptr);
  const Table& d = *r->derived;
  EXPECT_EQ(d.num_cols(), 5u);
  EXPECT_EQ(d.schema().attr(1).name, "count");
  EXPECT_EQ(d.schema().attr(2).name, "avg_Price");

  // Groups partition the table.
  double total = 0;
  for (uint32_t row : r->rows) total += d.col(1).NumberAt(row);
  EXPECT_DOUBLE_EQ(total, static_cast<double>(table_->num_rows()));

  // Counts descending per ORDER BY; min <= avg <= max per group.
  double prev = 1e18;
  for (uint32_t row : r->rows) {
    double c = d.col(1).NumberAt(row);
    EXPECT_LE(c, prev);
    prev = c;
    EXPECT_LE(d.col(3).NumberAt(row), d.col(2).NumberAt(row));
    EXPECT_LE(d.col(2).NumberAt(row), d.col(4).NumberAt(row));
  }

  // Spot-check one group against a direct scan.
  auto body = *table_->ColByName("BodyType");
  auto price = *table_->ColByName("Price");
  size_t suv_n = 0;
  double suv_sum = 0;
  for (size_t i = 0; i < table_->num_rows(); ++i) {
    if (body->ValueAt(i).AsString() == "SUV") {
      ++suv_n;
      suv_sum += price->NumberAt(i);
    }
  }
  bool found = false;
  for (uint32_t row : r->rows) {
    if (d.At(row, 0).AsString() == "SUV") {
      found = true;
      EXPECT_DOUBLE_EQ(d.col(1).NumberAt(row), static_cast<double>(suv_n));
      EXPECT_NEAR(d.col(2).NumberAt(row), suv_sum / suv_n, 1e-6);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(EngineTest, AggregateWithWhereAndSum) {
  auto r = engine_.ExecuteSql(
      "SELECT Make, SUM(Price) FROM UsedCars WHERE BodyType = Sedan "
      "GROUP BY Make");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Only sedan-producing makes appear.
  for (uint32_t row : r->rows) {
    EXPECT_GT(r->derived->col(1).NumberAt(row), 0.0);
  }
  EXPECT_GT(r->rows.size(), 2u);
  EXPECT_LT(r->rows.size(), 15u);
}

TEST_F(EngineTest, GlobalAggregateWithoutGroupBy) {
  auto r = engine_.ExecuteSql("SELECT COUNT(*), AVG(Mileage) FROM UsedCars");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r->derived->col(0).NumberAt(r->rows[0]),
                   static_cast<double>(table_->num_rows()));
  EXPECT_GT(r->derived->col(1).NumberAt(r->rows[0]), 0.0);
}

TEST_F(EngineTest, AggregateErrors) {
  EXPECT_TRUE(engine_
                  .ExecuteSql("SELECT AVG(Make) FROM UsedCars GROUP BY Make")
                  .status()
                  .IsInvalidArgument());  // non-numeric aggregate
  EXPECT_TRUE(engine_
                  .ExecuteSql("SELECT COUNT(*) FROM UsedCars GROUP BY Nope")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(engine_
                  .ExecuteSql("SELECT Make, COUNT(*) FROM UsedCars "
                              "GROUP BY Make ORDER BY bogus")
                  .status()
                  .IsNotFound());
}

TEST_F(EngineTest, DescribeProfilesTable) {
  auto r = engine_.ExecuteSql("DESCRIBE UsedCars");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->kind, ExecOutcome::Kind::kDescribe);
  EXPECT_NE(r->rendered.find("Make"), std::string::npos);
  EXPECT_NE(r->rendered.find("categorical"), std::string::npos);
  // The hidden Engine attribute is flagged non-queriable.
  EXPECT_NE(r->rendered.find("| Engine       | categorical | no"),
            std::string::npos);
  EXPECT_TRUE(engine_.ExecuteSql("DESCRIBE Nope").status().IsNotFound());
  EXPECT_TRUE(engine_.ExecuteSql("DESCRIBE").status().IsInvalidArgument());
}

TEST_F(EngineTest, ShowTablesAndCadViews) {
  auto tables = engine_.ExecuteSql("SHOW TABLES");
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_EQ(tables->kind, ExecOutcome::Kind::kShow);
  EXPECT_NE(tables->rendered.find("UsedCars"), std::string::npos);

  auto none = engine_.ExecuteSql("SHOW CADVIEWS");
  ASSERT_TRUE(none.ok());
  EXPECT_NE(none->rendered.find("(none)"), std::string::npos);

  ASSERT_TRUE(engine_
                  .ExecuteSql("CREATE CADVIEW sv AS SET pivot = Make SELECT "
                              "Price FROM UsedCars WHERE Make = Ford "
                              "LIMIT COLUMNS 3 IUNITS 2")
                  .ok());
  auto views = engine_.ExecuteSql("SHOW CADVIEWS");
  ASSERT_TRUE(views.ok());
  EXPECT_NE(views->rendered.find("sv"), std::string::npos);

  EXPECT_TRUE(engine_.ExecuteSql("SHOW NONSENSE").status()
                  .IsInvalidArgument());
}

TEST_F(EngineTest, DropCadViewRemovesIt) {
  ASSERT_TRUE(engine_
                  .ExecuteSql("CREATE CADVIEW dv AS SET pivot = Make SELECT "
                              "Price FROM UsedCars WHERE Make = Ford "
                              "LIMIT COLUMNS 3 IUNITS 2")
                  .ok());
  ASSERT_TRUE(engine_.GetView("dv").ok());
  auto dropped = engine_.ExecuteSql("DROP CADVIEW dv");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(dropped->kind, ExecOutcome::Kind::kDrop);
  EXPECT_TRUE(engine_.GetView("dv").status().IsNotFound());
  EXPECT_TRUE(engine_.ExecuteSql("DROP CADVIEW dv").status().IsNotFound());
}

TEST_F(EngineTest, SelectOrderByUnknownColumn) {
  EXPECT_TRUE(engine_.ExecuteSql("SELECT * FROM UsedCars ORDER BY Nope")
                  .status()
                  .IsNotFound());
}

TEST_F(EngineTest, SelectValidatesNames) {
  EXPECT_TRUE(engine_.ExecuteSql("SELECT * FROM Nope").status().IsNotFound());
  EXPECT_TRUE(engine_.ExecuteSql("SELECT bogus FROM UsedCars").status()
                  .IsNotFound());
}

TEST_F(EngineTest, CreateCadViewAndFetch) {
  auto r = engine_.ExecuteSql(
      "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars "
      "WHERE BodyType = SUV AND (Make = Ford OR Make = Jeep) "
      "LIMIT COLUMNS 4 IUNITS 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->kind, ExecOutcome::Kind::kCadView);
  ASSERT_NE(r->view, nullptr);
  EXPECT_EQ(r->view->rows.size(), 2u);
  EXPECT_LE(r->view->compare_attrs.size(), 4u);
  EXPECT_FALSE(r->rendered.empty());

  auto v = engine_.GetView("v");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, r->view);
  EXPECT_TRUE(engine_.GetView("missing").status().IsNotFound());
}

TEST_F(EngineTest, ExplainAnalyzeCreateCadViewColdThenWarm) {
  engine_.SetViewCache(std::make_shared<ViewCache>());
  const std::string sql =
      "EXPLAIN ANALYZE CREATE CADVIEW ev AS SET pivot = Make SELECT Price "
      "FROM UsedCars WHERE BodyType = SUV AND (Make = Ford OR Make = Jeep) "
      "LIMIT COLUMNS 4 IUNITS 2";

  auto cold = engine_.ExecuteSql(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->kind, ExecOutcome::Kind::kExplain);
  ASSERT_NE(cold->view, nullptr);  // the inner statement really executed
  // The cold build renders the full paper pipeline as stages.
  for (const char* stage :
       {"parse", "cache_probe", "discretize", "partition", "chi_square",
        "kmeans", "labeling", "div_topk"}) {
    EXPECT_NE(cold->rendered.find(stage), std::string::npos)
        << "missing stage '" << stage << "' in:\n" << cold->rendered;
  }
  EXPECT_NE(cold->rendered.find("result=miss"), std::string::npos)
      << cold->rendered;
  EXPECT_NE(cold->rendered.find("cache: hits="), std::string::npos);
  EXPECT_NE(cold->rendered.find("pool: threads="), std::string::npos);

  // Warm: same statement short-circuits to the cache-hit path — the probe
  // reports the hit and no pipeline stage runs.
  auto warm = engine_.ExecuteSql(sql);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_NE(warm->rendered.find("result=hit"), std::string::npos)
      << warm->rendered;
  EXPECT_EQ(warm->rendered.find("kmeans"), std::string::npos)
      << warm->rendered;
}

TEST_F(EngineTest, ExplainSelectAndErrors) {
  auto r = engine_.ExecuteSql("EXPLAIN SELECT * FROM UsedCars LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->kind, ExecOutcome::Kind::kExplain);
  EXPECT_EQ(r->rows.size(), 5u);  // inner outcome fields pass through
  EXPECT_NE(r->rendered.find("execute:select"), std::string::npos);
  // Inner failures surface as the statement's own error.
  EXPECT_TRUE(engine_.ExecuteSql("EXPLAIN ANALYZE SELECT * FROM Nope")
                  .status()
                  .IsNotFound());
}

TEST_F(EngineTest, HighlightAndReorderAgainstStoredView) {
  ASSERT_TRUE(engine_
                  .ExecuteSql("CREATE CADVIEW v AS SET pivot = Make SELECT "
                              "Price FROM UsedCars WHERE BodyType = SUV AND "
                              "(Make = Ford OR Make = Jeep OR Make = Toyota) "
                              "LIMIT COLUMNS 4 IUNITS 2")
                  .ok());
  auto h = engine_.ExecuteSql(
      "HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(Ford, 1) > 0.0");
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->kind, ExecOutcome::Kind::kHighlight);
  EXPECT_FALSE(h->highlights.empty());

  auto r = engine_.ExecuteSql(
      "REORDER ROWS IN v ORDER BY SIMILARITY(Toyota) DESC");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, ExecOutcome::Kind::kReorder);
  EXPECT_EQ(r->view->rows[0].pivot_value, "Toyota");
}

TEST_F(EngineTest, ReorderAscendingReversesOrder) {
  ASSERT_TRUE(engine_
                  .ExecuteSql("CREATE CADVIEW va AS SET pivot = Make SELECT "
                              "Price FROM UsedCars WHERE BodyType = SUV AND "
                              "(Make = Ford OR Make = Jeep OR Make = Toyota) "
                              "LIMIT COLUMNS 4 IUNITS 2")
                  .ok());
  auto desc = engine_.ExecuteSql(
      "REORDER ROWS IN va ORDER BY SIMILARITY(Ford) DESC");
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->view->rows.front().pivot_value, "Ford");
  auto asc = engine_.ExecuteSql(
      "REORDER ROWS IN va ORDER BY SIMILARITY(Ford) ASC");
  ASSERT_TRUE(asc.ok());
  EXPECT_EQ(asc->view->rows.back().pivot_value, "Ford");
}

TEST_F(EngineTest, HighlightUnknownViewOrValue) {
  EXPECT_TRUE(engine_
                  .ExecuteSql("HIGHLIGHT SIMILAR IUNITS IN nope WHERE "
                              "SIMILARITY(Ford, 1) > 1")
                  .status()
                  .IsNotFound());
  ASSERT_TRUE(engine_
                  .ExecuteSql("CREATE CADVIEW v2 AS SET pivot = Make SELECT "
                              "Price FROM UsedCars WHERE Make = Ford "
                              "LIMIT COLUMNS 3 IUNITS 2")
                  .ok());
  EXPECT_TRUE(engine_
                  .ExecuteSql("HIGHLIGHT SIMILAR IUNITS IN v2 WHERE "
                              "SIMILARITY(Chevrolet, 1) > 1")
                  .status()
                  .IsNotFound());
}

TEST_F(EngineTest, OrderBySortsIUnitsByAttributeCode) {
  auto r = engine_.ExecuteSql(
      "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars "
      "WHERE BodyType = SUV AND (Make = Ford OR Make = Chevrolet) "
      "LIMIT COLUMNS 4 IUNITS 3 ORDER BY Price ASC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const CadViewRow& row : r->view->rows) {
    for (size_t i = 1; i < row.iunits.size(); ++i) {
      int32_t prev = row.iunits[i - 1].cells[0].codes.empty()
                         ? INT32_MAX
                         : row.iunits[i - 1].cells[0].codes[0];
      int32_t cur = row.iunits[i].cells[0].codes.empty()
                        ? INT32_MAX
                        : row.iunits[i].cells[0].codes[0];
      EXPECT_LE(prev, cur);
    }
  }
}

TEST_F(EngineTest, OrderByRequiresCompareAttribute) {
  auto r = engine_.ExecuteSql(
      "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars "
      "WHERE Make = Ford LIMIT COLUMNS 3 IUNITS 2 ORDER BY NotAnAttr");
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(EngineTest, DefaultOptionsRespected) {
  CadViewOptions defaults;
  defaults.max_compare_attrs = 2;
  defaults.iunits_per_value = 1;
  engine_.SetDefaultCadViewOptions(defaults);
  auto r = engine_.ExecuteSql(
      "CREATE CADVIEW v AS SET pivot = Make SELECT * FROM UsedCars "
      "WHERE Make = Ford OR Make = Jeep");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LE(r->view->compare_attrs.size(), 2u);
  for (const CadViewRow& row : r->view->rows) {
    EXPECT_LE(row.iunits.size(), 1u);
  }
}

TEST_F(EngineTest, ShardedDefaultsAreOutputTransparent) {
  // Shard policy rides along via the engine's default CadViewOptions; the
  // sharded build must be byte-identical to the unsharded one through the
  // full SQL path (timings excluded — they are wall-clock, not output).
  const char* kSql =
      "CREATE CADVIEW v AS SET pivot = Make SELECT * FROM UsedCars "
      "WHERE Make = Ford OR Make = Jeep OR Make = Toyota";
  auto baseline = engine_.ExecuteSql(kSql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  Engine sharded;
  sharded.RegisterTable("UsedCars", table_);
  CadViewOptions defaults;
  defaults.sharding.num_shards = 4;
  defaults.sharding.min_rows_per_shard = 1;
  defaults.num_threads = 2;
  sharded.SetDefaultCadViewOptions(defaults);
  auto r = sharded.ExecuteSql(kSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  CadView a = *baseline->view;
  CadView b = *r->view;
  a.timings = CadViewTimings{};
  b.timings = CadViewTimings{};
  EXPECT_EQ(CadViewToJson(b), CadViewToJson(a));
}

// --- Property-based round trips ----------------------------------------------
//
// The canonical unparser's law (src/query/canonical.h): for any statement the
// printer emits, print(parse(print(S))) == print(S). A deterministic random
// AST generator drives a few hundred statements through the cycle. The
// generator stays inside the printable grammar: And/Or get >= 2 children (a
// single child would print as "(a)" and re-parse to the bare child), strings
// avoid the quote character (Predicate::ToString does not escape), numbers are
// non-negative (the lexer has no unary minus), and BETWEEN uses ordered
// integer bounds (its bounds print with zero decimals).

const char* const kAttrPool[] = {"Price",  "Mileage", "Year",      "Make",
                                 "Model",  "Color",   "Odor",      "GillColor",
                                 "Rating", "Capacity"};
const char* const kTablePool[] = {"UsedCars", "Mushrooms", "Listings"};
const char* const kViewPool[] = {"v1", "v2", "focus"};
const char* const kWordPool[] = {"red",  "blue",   "Jeep",   "Ford",
                                 "none", "foul",   "smooth", "broad",
                                 "ring type", "almond"};

template <size_t N>
std::string Pick(Rng& rng, const char* const (&pool)[N]) {
  return pool[rng.NextBounded(N)];
}

PredicatePtr RandomPredicate(Rng& rng, int depth) {
  // Leaves only once the tree is deep enough.
  const int kind = depth >= 2 ? static_cast<int>(rng.NextBounded(4))
                              : static_cast<int>(rng.NextBounded(7));
  switch (kind) {
    case 0: {  // numeric comparison
      static const CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                   CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
      const CmpOp op = kOps[rng.NextBounded(6)];
      const double v = rng.NextBool()
                           ? static_cast<double>(rng.NextInt(0, 99999))
                           : static_cast<double>(rng.NextInt(0, 99999)) / 1000.0;
      return MakeCmp(Pick(rng, kAttrPool), op, Value(v));
    }
    case 1: {  // string comparison
      const CmpOp op = rng.NextBool() ? CmpOp::kEq : CmpOp::kNe;
      return MakeCmp(Pick(rng, kAttrPool), op, Value(Pick(rng, kWordPool)));
    }
    case 2: {  // BETWEEN with ordered integer bounds
      const int64_t lo = rng.NextInt(0, 50000);
      const int64_t hi = lo + rng.NextInt(0, 50000);
      return MakeBetween(Pick(rng, kAttrPool), static_cast<double>(lo),
                         static_cast<double>(hi));
    }
    case 3: {  // IN list
      std::vector<std::string> values;
      const size_t n = 1 + rng.NextBounded(3);
      for (size_t i = 0; i < n; ++i) values.push_back(Pick(rng, kWordPool));
      return MakeIn(Pick(rng, kAttrPool), std::move(values));
    }
    case 4:
    case 5: {  // conjunction / disjunction, always >= 2 children
      std::vector<PredicatePtr> children;
      const size_t n = 2 + rng.NextBounded(2);
      for (size_t i = 0; i < n; ++i) {
        children.push_back(RandomPredicate(rng, depth + 1));
      }
      return kind == 4 ? MakeAnd(std::move(children))
                       : MakeOr(std::move(children));
    }
    default:
      return MakeNot(RandomPredicate(rng, depth + 1));
  }
}

std::vector<std::pair<std::string, bool>> RandomOrderBy(Rng& rng) {
  std::vector<std::pair<std::string, bool>> order_by;
  const size_t n = rng.NextBounded(3);
  for (size_t i = 0; i < n; ++i) {
    order_by.emplace_back(Pick(rng, kAttrPool), rng.NextBool());
  }
  return order_by;
}

Statement RandomSelect(Rng& rng) {
  SelectStmt stmt;
  stmt.table = Pick(rng, kTablePool);
  if (rng.NextBool(0.3)) {
    // Aggregate form: items list the grouping columns plus 1-2 aggregates.
    const size_t groups = rng.NextBounded(3);
    for (size_t i = 0; i < groups; ++i) {
      std::string col = Pick(rng, kAttrPool);
      stmt.group_by.push_back(col);
      stmt.items.push_back(SelectItem{std::nullopt, std::move(col)});
    }
    static const AggFn kFns[] = {AggFn::kCount, AggFn::kAvg, AggFn::kSum,
                                 AggFn::kMin, AggFn::kMax};
    const size_t aggs = 1 + rng.NextBounded(2);
    for (size_t i = 0; i < aggs; ++i) {
      const AggFn fn = kFns[rng.NextBounded(5)];
      stmt.items.push_back(SelectItem{
          fn, fn == AggFn::kCount ? std::string() : Pick(rng, kAttrPool)});
    }
    // Aggregate ORDER BY names refer to output columns.
    if (!stmt.group_by.empty() && rng.NextBool()) {
      stmt.order_by.emplace_back(stmt.group_by[0], rng.NextBool());
    }
  } else if (rng.NextBool(0.4)) {
    stmt.star = true;
    stmt.order_by = RandomOrderBy(rng);
  } else {
    const size_t cols = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < cols; ++i) {
      stmt.columns.push_back(Pick(rng, kAttrPool));
    }
    stmt.order_by = RandomOrderBy(rng);
  }
  if (rng.NextBool(0.6)) stmt.where = RandomPredicate(rng, 0);
  if (rng.NextBool()) stmt.limit = static_cast<size_t>(rng.NextInt(0, 500));
  return stmt;
}

Statement RandomCreateCadView(Rng& rng) {
  CreateCadViewStmt stmt;
  stmt.view_name = Pick(rng, kViewPool);
  stmt.pivot_attr = Pick(rng, kAttrPool);
  const size_t attrs = rng.NextBounded(4);  // 0 prints as SELECT *
  for (size_t i = 0; i < attrs; ++i) {
    stmt.compare_attrs.push_back(Pick(rng, kAttrPool));
  }
  stmt.table = Pick(rng, kTablePool);
  if (rng.NextBool()) stmt.where = RandomPredicate(rng, 0);
  if (rng.NextBool()) {
    stmt.limit_columns = static_cast<size_t>(rng.NextInt(1, 8));
  }
  if (rng.NextBool()) stmt.iunits = static_cast<size_t>(rng.NextInt(1, 5));
  stmt.order_by = RandomOrderBy(rng);
  return stmt;
}

Statement RandomStatement(Rng& rng) {
  switch (rng.NextBounded(7)) {
    case 0:
      return RandomSelect(rng);
    case 1:
      return RandomCreateCadView(rng);
    case 2: {
      HighlightStmt stmt;
      stmt.view_name = Pick(rng, kViewPool);
      stmt.pivot_value = Pick(rng, kWordPool);
      stmt.iunit_rank = static_cast<size_t>(rng.NextInt(1, 5));
      stmt.threshold = rng.NextBool()
                           ? static_cast<double>(rng.NextInt(0, 3))
                           : static_cast<double>(rng.NextInt(0, 1000)) / 1000.0;
      return stmt;
    }
    case 3: {
      ReorderStmt stmt;
      stmt.view_name = Pick(rng, kViewPool);
      stmt.pivot_value = Pick(rng, kWordPool);
      stmt.descending = rng.NextBool();
      return stmt;
    }
    case 4:
      return DescribeStmt{Pick(rng, kTablePool)};
    case 5: {
      ShowStmt stmt;
      stmt.what =
          rng.NextBool() ? ShowStmt::What::kTables : ShowStmt::What::kCadViews;
      return stmt;
    }
    default:
      return DropCadViewStmt{Pick(rng, kViewPool)};
  }
}

TEST(RoundTripPropertyTest, PrintParsePrintIsIdentity) {
  Rng rng(20260805);
  for (int iter = 0; iter < 300; ++iter) {
    const Statement stmt = RandomStatement(rng);
    const std::string sql1 = StatementToSql(stmt);
    auto parsed = ParseStatement(sql1);
    ASSERT_TRUE(parsed.ok())
        << "iter " << iter << ": " << sql1 << "\n  " << parsed.status().ToString();
    EXPECT_EQ(parsed->index(), stmt.index()) << "iter " << iter << ": " << sql1;
    EXPECT_EQ(StatementToSql(*parsed), sql1) << "iter " << iter;
  }
}

TEST(RoundTripPropertyTest, PredicatePrintParsePrintIsIdentity) {
  // Denser coverage of the WHERE grammar than whole statements give.
  Rng rng(7);
  for (int iter = 0; iter < 300; ++iter) {
    const PredicatePtr pred = RandomPredicate(rng, 0);
    const std::string sql1 = "SELECT * FROM UsedCars WHERE " + pred->ToString();
    auto parsed = ParseStatement(sql1);
    ASSERT_TRUE(parsed.ok())
        << "iter " << iter << ": " << sql1 << "\n  " << parsed.status().ToString();
    EXPECT_EQ(StatementToSql(*parsed), sql1) << "iter " << iter;
  }
}

TEST(RoundTripPropertyTest, PredicateToStringIsCanonicalForTheViewCache) {
  // The view cache keys selection contexts on CanonicalizePredicate of the
  // WHERE text. Two invariants keep keys stable: the printer's output is a
  // fixed point of canonicalization, and whitespace mangling never changes
  // the canonical form (so textual variants of one query share a key).
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    const PredicatePtr pred = RandomPredicate(rng, 0);
    const std::string text = pred->ToString();
    EXPECT_EQ(CanonicalizePredicate(text), text) << "iter " << iter;

    std::string mangled = "  ";
    for (char c : text) {
      mangled += c;
      if (c == ' ' && rng.NextBool()) {
        mangled += rng.NextBool() ? "\t " : "  ";
      }
    }
    mangled += " \t";
    EXPECT_EQ(CanonicalizePredicate(mangled), text) << "iter " << iter;
  }
}


// --- Shared-cache snapshot identity ------------------------------------------
//
// Regression for stale-partition serving: before snapshot-identity dataset
// ids, a ViewCache shared by two engines keyed entries by bare table name,
// so two sessions that registered *different* tables under the same name
// served each other's cached partitions.

TEST(EngineSharedCacheTest, DistinctRegistrationsNeverShareEntries) {
  auto cache = std::make_shared<ViewCache>();
  Table t1 = GenerateUsedCars(400, 1);
  Table t2 = GenerateUsedCars(400, 2);  // different rows, same schema
  Engine e1;
  Engine e2;
  e1.SetViewCache(cache);
  e2.SetViewCache(cache);
  e1.RegisterTable("T", &t1);
  e2.RegisterTable("T", &t2);
  const std::string stmt =
      "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM T "
      "WHERE BodyType = SUV LIMIT COLUMNS 2 IUNITS 2";
  auto r1 = e1.ExecuteSql(stmt);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = e2.ExecuteSql(stmt);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  // The identical statement over a different registration must NOT hit.
  ViewCacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.inserts, 2u);
}

TEST(EngineSharedCacheTest, SharedSnapshotRegistrationsShareEntries) {
  auto cache = std::make_shared<ViewCache>();
  auto t = std::make_shared<const Table>(GenerateUsedCars(400, 1));
  const std::string snapshot = MakeSnapshotDatasetId("T");
  Engine e1;
  Engine e2;
  e1.SetViewCache(cache);
  e2.SetViewCache(cache);
  // Both engines name the same immutable snapshot — the multi-session
  // server's arrangement — so they share cache entries.
  e1.RegisterTableSnapshot("T", t, snapshot);
  e2.RegisterTableSnapshot("T", t, snapshot);
  const std::string stmt =
      "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM T "
      "WHERE BodyType = SUV LIMIT COLUMNS 2 IUNITS 2";
  auto r1 = e1.ExecuteSql(stmt);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = e2.ExecuteSql(stmt);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ViewCacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(r1->rendered, r2->rendered);
}

TEST(EngineSharedCacheTest, ReRegistrationInvalidatesItsOwnSnapshotOnly) {
  auto cache = std::make_shared<ViewCache>();
  Table t = GenerateUsedCars(400, 1);
  Engine engine;
  engine.SetViewCache(cache);
  engine.RegisterTable("T", &t);
  const std::string stmt =
      "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM T "
      "WHERE BodyType = SUV LIMIT COLUMNS 2 IUNITS 2";
  ASSERT_TRUE(engine.ExecuteSql(stmt).ok());
  EXPECT_EQ(cache->stats().entries, 1u);
  // Re-registering (same pointer, "reloaded" data) drops the old snapshot's
  // entries and the rebuild is a miss.
  engine.RegisterTable("T", &t);
  EXPECT_EQ(cache->stats().entries, 0u);
  EXPECT_GE(cache->stats().invalidations, 1u);
  ASSERT_TRUE(engine.ExecuteSql(stmt).ok());
  ViewCacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.inserts, 2u);
}

TEST(EngineSharedCacheTest, SnapshotReRegistrationInvalidatesOnlyOnNewId) {
  auto cache = std::make_shared<ViewCache>();
  auto t = std::make_shared<const Table>(GenerateUsedCars(400, 1));
  Engine engine;
  engine.SetViewCache(cache);
  engine.RegisterTableSnapshot("T", t, "T@a");
  const std::string stmt =
      "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM T "
      "WHERE BodyType = SUV LIMIT COLUMNS 2 IUNITS 2";
  ASSERT_TRUE(engine.ExecuteSql(stmt).ok());
  EXPECT_EQ(cache->stats().entries, 1u);
  // The same id (an unchanged snapshot, even as a fresh Table object) keeps
  // the entry: the rebuild is a hit.
  engine.RegisterTableSnapshot(
      "T", std::make_shared<const Table>(GenerateUsedCars(400, 1)), "T@a");
  EXPECT_EQ(cache->stats().invalidations, 0u);
  ASSERT_TRUE(engine.ExecuteSql(stmt).ok());
  EXPECT_EQ(cache->stats().hits, 1u);
  // A different id drops the old id's entries.
  engine.RegisterTableSnapshot("T", t, "T@b");
  EXPECT_EQ(cache->stats().entries, 0u);
  EXPECT_EQ(cache->stats().invalidations, 1u);
}

TEST(EngineRegistrationTest, RawRegistrationReleasesReplacedSnapshot) {
  auto snapshot = std::make_shared<const Table>(GenerateUsedCars(200, 1));
  std::weak_ptr<const Table> watch = snapshot;
  Table replacement = GenerateUsedCars(200, 2);
  Engine engine;
  engine.RegisterTableSnapshot("T", std::move(snapshot),
                               MakeSnapshotDatasetId("T"));
  EXPECT_FALSE(watch.expired());
  engine.RegisterTable("T", &replacement);
  EXPECT_TRUE(watch.expired())
      << "a replaced registration must not be kept alive";
  auto out = engine.ExecuteSql("SELECT * FROM T");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->table, &replacement);
}

}  // namespace
}  // namespace dbx
