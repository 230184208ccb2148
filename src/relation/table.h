// Copyright (c) DBExplorer reproduction authors.
// The in-memory relation: a schema plus one Column per attribute, and the
// RowSet/TableSlice machinery the query layer and the CAD View pipeline use
// to operate on selections without copying tuples.

#pragma once

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/relation/column.h"
#include "src/relation/schema.h"
#include "src/util/result.h"

namespace dbx {

/// Row indices into a Table, in ascending order. The universal currency for
/// selections (WHERE clauses, facet filters, pivot-value partitions).
using RowSet = std::vector<uint32_t>;

/// A relation with columnar storage. Append-only.
class Table {
 public:
  explicit Table(Schema schema);

  /// Builds a table of `num_rows` rows from whole columns, one per attribute
  /// in schema order: the bulk path that loads and copies take. Checks,
  /// before any Table exists, that there is one column per attribute, that
  /// each column's type matches its attribute's, and that every column
  /// holds exactly `num_rows` cells; InvalidArgument otherwise.
  [[nodiscard]] static Result<Table> FromColumns(Schema schema,
                                                 std::vector<Column> cols,
                                                 size_t num_rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return schema_.size(); }

  const Column& col(size_t i) const { return *cols_[i]; }
  Column& col(size_t i) { return *cols_[i]; }

  /// Column by name; Status::NotFound for unknown attributes.
  [[nodiscard]] Result<const Column*> ColByName(const std::string& name) const;

  /// Appends one tuple; `row` must have one Value per attribute with matching
  /// types (nulls always allowed).
  [[nodiscard]] Status AppendRow(const std::vector<Value>& row);

  /// Cell accessor (generic; allocates for categorical cells).
  Value At(size_t row, size_t col_idx) const { return cols_[col_idx]->ValueAt(row); }

  /// All row ids [0, num_rows).
  RowSet AllRows() const {
    RowSet r(num_rows_);
    std::iota(r.begin(), r.end(), 0u);
    return r;
  }

 private:
  Schema schema_;
  std::vector<std::unique_ptr<Column>> cols_;
  size_t num_rows_ = 0;
};

/// A non-owning view of (table, selected rows). The CAD View is always built
/// over a slice — "the fragment of the database that is currently selected".
struct TableSlice {
  const Table* table = nullptr;
  RowSet rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }

  /// Slice covering the whole table.
  static TableSlice All(const Table& t) { return {&t, t.AllRows()}; }
};

}  // namespace dbx
