#include "src/stats/discretizer.h"

namespace dbx {

Status BinNumeric(const ValueOrderIndex& index, const RowSet& rows,
                  const DiscretizerOptions& options, DiscreteAttr* da) {
  const std::vector<uint32_t>& ranks = index.ranks;
  da->codes.assign(rows.size(), -1);
  std::vector<uint32_t> counts(index.distinct.size(), 0);  // rows per rank
  for (uint32_t r : rows) {
    if (ranks[r] != ValueOrderIndex::kNullRank) ++counts[ranks[r]];
  }
  std::vector<ValueRun> runs;
  for (size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] != 0) runs.push_back({index.distinct[k], counts[k]});
  }
  if (runs.empty()) return Status::OK();
  DBX_ASSIGN_OR_RETURN(
      da->bins,
      BuildBinsFromRuns(runs, options.max_numeric_bins, options.strategy));
  da->labels.reserve(da->bins.num_bins());
  for (size_t b = 0; b < da->bins.num_bins(); ++b) {
    da->labels.push_back(da->bins.LabelOf(b));
  }
  // Reuse counts as the rank -> bin table; only present ranks are read.
  auto run = runs.begin();
  for (uint32_t& c : counts) {
    if (c != 0) c = static_cast<uint32_t>(da->bins.BinOf((run++)->value));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    uint32_t k = ranks[rows[i]];
    if (k != ValueOrderIndex::kNullRank) {
      da->codes[i] = static_cast<int32_t>(counts[k]);
    }
  }
  return Status::OK();
}

Result<DiscretizedTable> DiscretizedTable::Build(
    const TableSlice& slice, const DiscretizerOptions& options) {
  if (slice.table == nullptr) {
    return Status::InvalidArgument("null table in slice");
  }
  if (options.max_numeric_bins == 0) {
    return Status::InvalidArgument("max_numeric_bins must be >= 1");
  }
  const Table& t = *slice.table;
  DiscretizedTable out;
  out.rows_ = slice.rows;
  out.num_rows_ = slice.rows.size();
  out.attrs_.reserve(t.num_cols());

  for (size_t a = 0; a < t.num_cols(); ++a) {
    const AttributeDef& def = t.schema().attr(a);
    const Column& col = t.col(a);
    DiscreteAttr da;
    da.name = def.name;
    da.original_type = def.type;
    da.queriable = def.queriable;

    if (def.type == AttrType::kCategorical) {
      da.codes.resize(slice.rows.size(), -1);
      // Re-compact dictionary codes to the values present in the slice so
      // downstream contingency tables stay dense.
      std::vector<int32_t> remap(col.DictSize(), -1);
      for (size_t i = 0; i < slice.rows.size(); ++i) {
        int32_t code = col.CodeAt(slice.rows[i]);
        if (code == kNullCode) continue;
        if (remap[code] == -1) {
          remap[code] = static_cast<int32_t>(da.labels.size());
          da.labels.push_back(col.DictString(code));
        }
        da.codes[i] = remap[code];
      }
    } else {
      DBX_RETURN_IF_ERROR(
          BinNumeric(*col.OrderIndex(), slice.rows, options, &da));
    }
    out.attrs_.push_back(std::move(da));
  }
  return out;
}

Result<DiscretizedTable> DiscretizedTable::FromParts(
    std::vector<DiscreteAttr> attrs, RowSet rows) {
  for (const DiscreteAttr& a : attrs) {
    if (a.codes.size() != rows.size()) {
      return Status::InvalidArgument("attribute '" + a.name +
                                     "' codes not parallel to rows");
    }
  }
  DiscretizedTable out;
  out.num_rows_ = rows.size();
  out.rows_ = std::move(rows);
  out.attrs_ = std::move(attrs);
  return out;
}

DiscretizedTable DiscretizedTable::Project(const RowSet& rows) const {
  DiscretizedTable out;
  out.num_rows_ = rows.size();
  out.rows_.reserve(rows.size());
  for (uint32_t pos : rows) {
    out.rows_.push_back(pos < rows_.size() ? rows_[pos] : pos);
  }
  out.attrs_.reserve(attrs_.size());
  for (const DiscreteAttr& a : attrs_) {
    DiscreteAttr pa;
    pa.name = a.name;
    pa.original_type = a.original_type;
    pa.queriable = a.queriable;
    pa.labels = a.labels;
    pa.bins = a.bins;
    pa.codes.reserve(rows.size());
    for (uint32_t pos : rows) {
      pa.codes.push_back(pos < a.codes.size() ? a.codes[pos] : -1);
    }
    out.attrs_.push_back(std::move(pa));
  }
  return out;
}

std::optional<size_t> DiscretizedTable::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return i;
  }
  return std::nullopt;
}

}  // namespace dbx
