// Copyright (c) DBExplorer reproduction authors.
// Columnar storage: dictionary-encoded categorical columns and dense numeric
// columns. Dictionary codes are what the statistics and clustering layers
// operate on, which keeps the hot loops integer-only.

#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/relation/value.h"
#include "src/util/mutex.h"
#include "src/util/status.h"

namespace dbx {

/// Sentinel code for a null categorical cell.
inline constexpr int32_t kNullCode = -1;

/// The value order of a numeric column: its distinct non-NaN values in
/// ascending order and, per row, the rank of the row's value among them.
/// Binning a fragment then needs no sort: count the fragment's ranks and
/// read order statistics off the cumulative counts (DESIGN.md §2). Costs
/// 4 B per row plus 8 B per distinct value.
struct ValueOrderIndex {
  /// Rank of a null (NaN) row.
  static constexpr uint32_t kNullRank = std::numeric_limits<uint32_t>::max();

  /// Distinct non-NaN values, strictly ascending. -0.0 and 0.0 compare
  /// equal, so they are one value, stored as 0.0.
  std::vector<double> distinct;
  /// Per row: index into `distinct`, or kNullRank.
  std::vector<uint32_t> ranks;

  /// Builds the index of `nums` (NaN = null) with one sort of the non-null
  /// values.
  static std::shared_ptr<const ValueOrderIndex> Build(
      const std::vector<double>& nums);
};

/// A column's lazily built ValueOrderIndex. Get() is safe from any number of
/// threads at once: the first caller builds the index under the lock and
/// every later caller shares it. Reset() drops it and, like the column's
/// appends that call it, needs exclusive access to the column. Copies start
/// empty; the index is derived data and is rebuilt on first use.
class LazyOrderIndex {
 public:
  LazyOrderIndex() = default;
  LazyOrderIndex(const LazyOrderIndex&) noexcept {}
  LazyOrderIndex& operator=(const LazyOrderIndex&) {
    Reset();
    return *this;
  }

  /// The index of `nums`, building it on first use.
  std::shared_ptr<const ValueOrderIndex> Get(
      const std::vector<double>& nums) const DBX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (index_ == nullptr) {
      index_ = ValueOrderIndex::Build(nums);
      built_.store(true);
    }
    return index_;
  }

  /// Drops the index, if any. Costs one atomic load when there is none, so
  /// row-at-a-time loads, which append cell by cell, take no lock.
  void Reset() DBX_EXCLUDES(mu_) {
    if (!built_.load()) return;
    MutexLock lock(mu_);
    index_.reset();
    built_.store(false);
  }

 private:
  mutable Mutex mu_;
  mutable std::shared_ptr<const ValueOrderIndex> index_ DBX_GUARDED_BY(mu_);
  // Mirrors index_ != nullptr, for Reset's fast path.
  mutable std::atomic<bool> built_{false};
};

/// A single typed column. Categorical cells are stored as int32 codes into a
/// per-column dictionary; numeric cells as doubles (NaN encodes null).
class Column {
 public:
  explicit Column(AttrType type) : type_(type) {}

  AttrType type() const { return type_; }
  size_t size() const {
    return type_ == AttrType::kCategorical ? codes_.size() : nums_.size();
  }

  // --- Appending -----------------------------------------------------------

  /// Appends a categorical value, interning it in the dictionary.
  /// Requires type() == kCategorical.
  void AppendString(const std::string& s) {
    codes_.push_back(Intern(s));
  }

  /// Appends a numeric value. Requires type() == kNumeric.
  void AppendNumber(double d) {
    order_index_.Reset();
    nums_.push_back(d);
  }

  /// Appends a null of the column's type.
  void AppendNull() {
    order_index_.Reset();
    if (type_ == AttrType::kCategorical) {
      codes_.push_back(kNullCode);
    } else {
      nums_.push_back(std::numeric_limits<double>::quiet_NaN());
    }
  }

  /// Appends one cell per entry of `codes`, each an index into `dict` or
  /// kNullCode. Interns every distinct code once, on its first appearance,
  /// so the column ends up with exactly the codes and dictionary order that
  /// AppendString over the same cells gives, whatever the order, duplicates
  /// or unused entries of `dict`. InvalidArgument, with the column
  /// unchanged, on a non-categorical column or an out-of-range code.
  [[nodiscard]] Status AppendCodes(const std::vector<int32_t>& codes,
                                   const std::vector<std::string>& dict) {
    if (type_ != AttrType::kCategorical) {
      return Status::InvalidArgument("AppendCodes on a numeric column");
    }
    // Validate before mutating so a rejected append leaves the column
    // unchanged.
    for (int32_t code : codes) {
      if (code != kNullCode &&
          (code < 0 || static_cast<size_t>(code) >= dict.size())) {
        return Status::InvalidArgument(
            "code " + std::to_string(code) + " outside a dictionary of " +
            std::to_string(dict.size()));
      }
    }
    // remap[c] is this column's code for dict[c], interned when c first
    // appears; kNullCode until then.
    std::vector<int32_t> remap(dict.size(), kNullCode);
    codes_.reserve(codes_.size() + codes.size());
    for (int32_t code : codes) {
      if (code == kNullCode) {
        codes_.push_back(kNullCode);
        continue;
      }
      int32_t& mapped = remap[static_cast<size_t>(code)];
      if (mapped == kNullCode) mapped = Intern(dict[static_cast<size_t>(code)]);
      codes_.push_back(mapped);
    }
    return Status::OK();
  }

  /// Appends `nums` (NaN = null), storing every NaN as the quiet NaN that
  /// AppendNull writes. Requires type() == kNumeric.
  void AppendNumbers(const std::vector<double>& nums) {
    order_index_.Reset();
    nums_.reserve(nums_.size() + nums.size());
    for (double d : nums) {
      nums_.push_back(std::isnan(d) ? std::numeric_limits<double>::quiet_NaN()
                                    : d);
    }
  }

  /// Appends a generic Value (must match the column type or be null).
  /// Returns false on a type mismatch.
  bool AppendValue(const Value& v) {
    if (v.is_null()) {
      AppendNull();
      return true;
    }
    if (type_ == AttrType::kCategorical) {
      if (!v.is_string()) return false;
      AppendString(v.AsString());
      return true;
    }
    if (!v.is_number()) return false;
    AppendNumber(v.AsNumber());
    return true;
  }

  // --- Cell access ---------------------------------------------------------

  /// Dictionary code at `row` (categorical columns only).
  int32_t CodeAt(size_t row) const { return codes_[row]; }

  /// Numeric value at `row` (numeric columns only). NaN means null.
  double NumberAt(size_t row) const { return nums_[row]; }

  bool IsNullAt(size_t row) const {
    return type_ == AttrType::kCategorical ? codes_[row] == kNullCode
                                           : std::isnan(nums_[row]);
  }

  /// Generic cell access (allocates for categorical cells).
  Value ValueAt(size_t row) const {
    if (IsNullAt(row)) return Value::Null();
    if (type_ == AttrType::kCategorical) return Value(dict_[codes_[row]]);
    return Value(nums_[row]);
  }

  // --- Dictionary ----------------------------------------------------------

  /// Number of distinct non-null categorical values seen so far.
  size_t DictSize() const { return dict_.size(); }

  /// The string for dictionary code `code` (0 <= code < DictSize()).
  const std::string& DictString(int32_t code) const { return dict_[code]; }

  /// Code for `s`, or kNullCode when `s` was never interned.
  int32_t CodeOf(const std::string& s) const {
    auto it = dict_index_.find(s);
    return it == dict_index_.end() ? kNullCode : it->second;
  }

  /// Interns `s` (idempotent) and returns its code.
  int32_t Intern(const std::string& s) {
    auto it = dict_index_.find(s);
    if (it != dict_index_.end()) return it->second;
    int32_t code = static_cast<int32_t>(dict_.size());
    dict_.push_back(s);
    dict_index_[s] = code;
    return code;
  }

  /// The dictionary, indexed by code.
  const std::vector<std::string>& dict() const { return dict_; }

  /// Raw code vector (categorical columns; size() entries).
  const std::vector<int32_t>& codes() const { return codes_; }
  /// Raw numeric vector (numeric columns; size() entries).
  const std::vector<double>& numbers() const { return nums_; }

  /// The value-order index of a numeric column, built on the first call
  /// (never by loading or appending) and shared by every later call until
  /// the next append drops it. Safe to call from many threads at once.
  std::shared_ptr<const ValueOrderIndex> OrderIndex() const {
    return order_index_.Get(nums_);
  }

 private:
  AttrType type_;
  std::vector<int32_t> codes_;   // kCategorical payload
  std::vector<double> nums_;     // kNumeric payload
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int32_t> dict_index_;
  LazyOrderIndex order_index_;  // kNumeric only
};

}  // namespace dbx
