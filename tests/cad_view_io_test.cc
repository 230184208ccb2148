// Tests for CAD View JSON/CSV export.

#include <gtest/gtest.h>

#include "src/core/cad_view_builder.h"
#include "src/core/cad_view_io.h"
#include "src/data/used_cars.h"

namespace dbx {
namespace {

// Minimal structural JSON validator: balanced braces/brackets outside
// strings, proper string termination.
bool JsonBalanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        --depth;
        if (depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

class CadViewIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new Table(GenerateUsedCars(2000, 3));
    CadViewOptions o;
    o.pivot_attr = "Make";
    o.pivot_values = {"Ford", "Jeep"};
    o.max_compare_attrs = 4;
    o.iunits_per_value = 2;
    o.seed = 5;
    view_ = new CadView(
        std::move(BuildCadView(TableSlice::All(*table_), o)).value());
  }
  static void TearDownTestSuite() {
    delete view_;
    delete table_;
    view_ = nullptr;
    table_ = nullptr;
  }
  static Table* table_;
  static CadView* view_;
};

Table* CadViewIoTest::table_ = nullptr;
CadView* CadViewIoTest::view_ = nullptr;

TEST_F(CadViewIoTest, JsonIsStructurallyValid) {
  std::string json = CadViewToJson(*view_);
  EXPECT_TRUE(JsonBalanced(json)) << json.substr(0, 200);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"pivot_attr\":\"Make\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":["), std::string::npos);
  EXPECT_NE(json.find("\"Ford\""), std::string::npos);
  EXPECT_NE(json.find("\"timings_ms\""), std::string::npos);
}

TEST_F(CadViewIoTest, JsonDeterministic) {
  EXPECT_EQ(CadViewToJson(*view_), CadViewToJson(*view_));
}

TEST_F(CadViewIoTest, CsvHasOneLinePerCell) {
  std::string csv = CadViewToCsv(*view_);
  size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  size_t expected = 1;  // header
  for (const CadViewRow& row : view_->rows) {
    expected += row.iunits.size() * view_->compare_attrs.size();
  }
  EXPECT_EQ(lines, expected);
  EXPECT_EQ(csv.substr(0, 11), "pivot_value");
}

}  // namespace
}  // namespace dbx
