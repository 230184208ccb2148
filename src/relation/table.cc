#include "src/relation/table.h"

namespace dbx {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  cols_.reserve(schema_.size());
  for (const AttributeDef& a : schema_.attrs()) {
    cols_.push_back(std::make_unique<Column>(a.type));
  }
}

Result<Table> Table::FromColumns(Schema schema, std::vector<Column> cols,
                                 size_t num_rows) {
  if (cols.size() != schema.size()) {
    return Status::InvalidArgument(
        std::to_string(cols.size()) + " columns for a schema of arity " +
        std::to_string(schema.size()));
  }
  for (size_t i = 0; i < cols.size(); ++i) {
    const AttributeDef& a = schema.attr(i);
    if (cols[i].type() != a.type) {
      return Status::InvalidArgument(
          "column '" + a.name + "' is " + AttrTypeName(cols[i].type()) +
          ", schema says " + AttrTypeName(a.type));
    }
    if (cols[i].size() != num_rows) {
      return Status::InvalidArgument(
          "column '" + a.name + "' has " + std::to_string(cols[i].size()) +
          " rows, expected " + std::to_string(num_rows));
    }
  }
  Table t(std::move(schema));
  for (size_t i = 0; i < cols.size(); ++i) *t.cols_[i] = std::move(cols[i]);
  t.num_rows_ = num_rows;
  return t;
}

Result<const Column*> Table::ColByName(const std::string& name) const {
  auto idx = schema_.IndexOf(name);
  if (!idx) return Status::NotFound("no attribute named '" + name + "'");
  return cols_[*idx].get();
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.size()));
  }
  // Validate before mutating so a failed append leaves the table unchanged.
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (v.is_null()) continue;
    bool type_ok = schema_.attr(i).type == AttrType::kCategorical
                       ? v.is_string()
                       : v.is_number();
    if (!type_ok) {
      return Status::InvalidArgument(
          "type mismatch at attribute '" + schema_.attr(i).name + "'");
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    cols_[i]->AppendValue(row[i]);
  }
  ++num_rows_;
  return Status::OK();
}

}  // namespace dbx
