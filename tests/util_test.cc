// Unit tests for src/util: Status/Result, Rng, string helpers, AsciiTable.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/util/ascii_table.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/string_util.h"

namespace dbx {
namespace {

// --- Status ------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, EveryFactoryMatchesItsPredicate) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = [] { return Status::NotFound("gone"); };
  auto wrapper = [&]() -> Status {
    DBX_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsNotFound());
}

// --- Result ------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyTypesWork) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto produce = []() -> Result<int> { return 5; };
  auto fail = []() -> Result<int> { return Status::Internal("boom"); };
  auto user = [&](bool ok_path) -> Result<int> {
    if (ok_path) {
      DBX_ASSIGN_OR_RETURN(int v, produce());
      return v + 1;
    }
    DBX_ASSIGN_OR_RETURN(int v, fail());
    return v + 1;
  };
  EXPECT_EQ(*user(true), 6);
  EXPECT_TRUE(user(false).status().IsInternal());
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.NextU64() != b.NextU64();
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextBounded(17), 17u);
    EXPECT_EQ(r.NextBounded(1), 0u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng r(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = r.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng r(99);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = r.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RngTest, WeightedNeverPicksZeroWeight) {
  Rng r(5);
  std::vector<double> w = {0.0, 1.0, 0.0, 3.0};
  for (int i = 0; i < 500; ++i) {
    size_t idx = r.NextWeighted(w);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(RngTest, WeightedRespectsProportions) {
  Rng r(5);
  std::vector<double> w = {1.0, 3.0};
  int counts[2] = {0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[r.NextWeighted(w)];
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng r(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  r.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIndependentStream) {
  Rng a(3);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

// --- string_util -------------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_EQ(ToUpper("MiXeD"), "MIXED");
  EXPECT_TRUE(EqualsIgnoreCase("Make", "mAkE"));
  EXPECT_FALSE(EqualsIgnoreCase("Make", "Makes"));
  EXPECT_TRUE(StartsWith("CADVIEW x", "CADVIEW"));
  EXPECT_FALSE(StartsWith("CAD", "CADVIEW"));
}

TEST(StringUtilTest, ParseDoubleStrict) {
  double d;
  EXPECT_TRUE(ParseDouble("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_TRUE(ParseDouble("  -2e3 ", &d));
  EXPECT_DOUBLE_EQ(d, -2000.0);
  EXPECT_FALSE(ParseDouble("3.5x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
}

TEST(StringUtilTest, ParseInt64Strict) {
  int64_t v;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("42.5", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(StringPrintf("%s=%d", "k", 6), "k=6");
}

TEST(JsonEscapeTest, EscapesControlAndSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  // BS and FF take their short forms (CAD View JSON export bytes pin this).
  EXPECT_EQ(JsonEscape("a\bb\fc"), "a\\bb\\fc");
}

// --- AsciiTable ----------------------------------------------------------------

TEST(AsciiTableTest, RendersHeaderAndRows) {
  AsciiTable t;
  t.SetHeader({"A", "B"});
  t.AddRow({"1", "2"});
  t.AddRow({"333", "4"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| A "), std::string::npos);
  EXPECT_NE(out.find("| 333 "), std::string::npos);
  // Header separator plus top/bottom rules.
  size_t rules = 0;
  for (size_t p = out.find("+--"); p != std::string::npos;
       p = out.find("+--", p + 1)) {
    ++rules;
  }
  EXPECT_GE(rules, 3u);
}

TEST(AsciiTableTest, EmptyWithoutHeader) {
  AsciiTable t;
  t.AddRow({"x"});
  EXPECT_EQ(t.Render(), "");
}

TEST(AsciiTableTest, ShortRowsPadded) {
  AsciiTable t;
  t.SetHeader({"A", "B", "C"});
  t.AddRow({"only"});
  std::string out = t.Render();
  EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(AsciiTableTest, MultilineCellsExpandRow) {
  AsciiTable t;
  t.SetHeader({"A", "B"});
  t.AddRow({"x\ny", "z"});
  std::string out = t.Render();
  // Two content lines between the header rule and the bottom rule.
  EXPECT_NE(out.find("| x "), std::string::npos);
  EXPECT_NE(out.find("| y "), std::string::npos);
}

TEST(AsciiTableTest, WordWrapRespectsMaxWidth) {
  AsciiTable t;
  t.SetHeader({"A"});
  t.SetMaxColumnWidth(8);
  t.AddRow({"aaaa bbbb cccc"});
  std::string out = t.Render();
  for (const std::string& line : Split(out, '\n')) {
    EXPECT_LE(line.size(), 8u + 4u);  // content + "| " + " |"
  }
}

TEST(RngTest, WeightedEmptyAndAllZero) {
  Rng r(1);
  std::vector<double> empty;
  EXPECT_EQ(r.NextWeighted(empty), 0u);
  std::vector<double> zeros = {0.0, 0.0, 0.0};
  EXPECT_EQ(r.NextWeighted(zeros), 0u);
}

TEST(AsciiTableTest, WidthOneStillRenders) {
  AsciiTable t;
  t.SetHeader({"A"});
  t.SetMaxColumnWidth(1);
  t.AddRow({"xyz"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| x |"), std::string::npos);
  EXPECT_NE(out.find("| z |"), std::string::npos);
}

TEST(AsciiTableTest, LongWordHardBroken) {
  AsciiTable t;
  t.SetHeader({"A"});
  t.SetMaxColumnWidth(4);
  t.AddRow({"abcdefghij"});
  std::string out = t.Render();
  EXPECT_NE(out.find("abcd"), std::string::npos);
  EXPECT_NE(out.find("efgh"), std::string::npos);
}

}  // namespace
}  // namespace dbx
