// Copyright (c) DBExplorer reproduction authors.
// DBXC: the on-disk columnar table format behind the `dbxc:` storage backend
// (DESIGN.md §15). Dictionary-coded categorical columns with bit-packed code
// pages and raw little-endian doubles, laid out so a reader can serve any
// column straight out of an mmap — no per-value parsing and no allocation per
// cell.
//
// Layout (all integers little-endian):
//   [0,4)    magic "DBXC"
//   [4,8)    u32 version (currently 1)
//   [8,12)   u32 header_len          — bytes of the header section
//   [12,20)  u64 header_checksum     — FNV-1a of the header section
//   [20,20+header_len)  header section:
//     u64 content_hash               — TableContentHash of the stored table
//                                      (the snapshot identity)
//     u64 num_rows
//     u64 data_len                   — bytes of the data section
//     u64 data_checksum              — FNV-1a of the data section
//     u32 num_cols
//     per column:
//       u32 name_len | name | u8 type (0=categorical, 1=numeric)
//       u8 queriable
//       categorical: u32 dict_size | u8 bit_width |
//                    u64 dict_off | u64 dict_len |
//                    u64 codes_off | u64 codes_len
//       numeric:     u64 values_off | u64 values_len
//     zero padding to a multiple of 8 (so the data section is 8-aligned)
//   [20+header_len, 20+header_len+data_len)  data section:
//     dictionary blocks: concatenated u32 len | bytes, padded to 8
//     code pages: u64 words; symbols are bit_width bits LSB-first,
//                 symbol 0 = null, symbol s>0 = dictionary code s-1
//     numeric pages: f64 values (NaN = null), naturally 8-aligned
//
// All offsets are relative to the data-section start. Every structural
// defect — truncation, bad magic, checksum mismatch, offsets out of bounds,
// a version from the future — comes back as a clean Status (Corruption /
// NotSupported), never a crash; the header parser is fuzzed
// (tests/fuzz/dbxc_fuzz.cc).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/relation/table.h"
#include "src/storage/mmap_file.h"
#include "src/util/result.h"

namespace dbx::storage {

inline constexpr uint32_t kDbxcVersion = 1;
inline constexpr size_t kDbxcPreambleBytes = 20;  // magic..header_checksum

/// Per-column metadata decoded from the header.
struct DbxcColumnMeta {
  std::string name;
  AttrType type = AttrType::kCategorical;
  bool queriable = true;
  // Categorical only.
  uint32_t dict_size = 0;
  uint8_t bit_width = 0;
  uint64_t dict_off = 0, dict_len = 0;
  uint64_t codes_off = 0, codes_len = 0;
  // Numeric only.
  uint64_t values_off = 0, values_len = 0;
};

struct DbxcHeader {
  uint32_t version = 0;
  uint64_t content_hash = 0;
  uint64_t num_rows = 0;
  uint64_t data_len = 0;
  uint64_t data_checksum = 0;
  std::vector<DbxcColumnMeta> cols;
};

/// Serializes `table` into DBXC bytes. Deterministic: the same table always
/// produces the same bytes, and write -> load -> write is byte-identical
/// (dictionaries are stored in their first-appearance order, which loading
/// reproduces).
std::string DbxcSerialize(const Table& table);

/// Parses and validates the preamble + header section of `file_bytes`:
/// magic, version, declared lengths against the actual size, header
/// checksum, column metadata, and that every column's pages lie inside the
/// declared data section. Does NOT touch data pages.
[[nodiscard]] Result<DbxcHeader> ParseDbxcHeader(std::string_view file_bytes);

/// Full structural validation: ParseDbxcHeader plus the data checksum.
[[nodiscard]] Status ValidateDbxc(std::string_view file_bytes);

/// Options for DbxcTableFile::Open.
struct DbxcOpenOptions {
  /// Verify the data-section checksum at open (one sequential pass). Off,
  /// open cost is O(header) and a flipped data byte surfaces as a decode
  /// error or wrong values instead; the backend keeps it on.
  bool verify_data_checksum = true;
};

/// A DBXC file served from an mmap. Column reads decode pages on demand;
/// nothing is materialized up front.
class DbxcTableFile {
 public:
  [[nodiscard]] static Result<DbxcTableFile> Open(
      const std::string& path, const DbxcOpenOptions& options = {});

  /// Parses from an in-memory copy of a file (tests, fuzzing).
  [[nodiscard]] static Result<DbxcTableFile> FromBytes(
      std::string bytes, const DbxcOpenOptions& options = {});

  const DbxcHeader& header() const { return header_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return static_cast<size_t>(header_.num_rows); }
  size_t num_cols() const { return header_.cols.size(); }
  uint64_t content_hash() const { return header_.content_hash; }

  /// Dictionary strings of categorical column `c`, in stored (= original
  /// first-appearance) order. Corruption if a dictionary block is malformed.
  [[nodiscard]] Result<std::vector<std::string>> DictStrings(size_t c) const;

  /// Unpacks categorical column `c` into per-row dictionary codes
  /// (kNullCode for nulls). Corruption on an out-of-range symbol.
  [[nodiscard]] Status DecodeCodes(size_t c, std::vector<int32_t>* out) const;

  /// Copies numeric column `c` out of the mapping (NaN = null).
  [[nodiscard]] Status CopyNumbers(size_t c, std::vector<double>* out) const;

  /// Rebuilds the full in-memory Table, equal to what was stored, including
  /// dictionary order. Column by column: DecodeCodes/DictStrings or
  /// CopyNumbers, then Column::AppendCodes/AppendNumbers and
  /// Table::FromColumns, so no cell is rebuilt through a Value. Stored codes
  /// are re-interned on first appearance, which drops unused dictionary
  /// entries, merges duplicate strings and yields first-appearance order
  /// (the order DbxcSerialize writes) even for files that do not have it.
  [[nodiscard]] Result<std::shared_ptr<Table>> Materialize() const;

 private:
  [[nodiscard]] Status Init(const DbxcOpenOptions& options);
  std::string_view data_section() const;

  MmapFile mmap_;          // set when opened from a path
  std::string owned_;      // set when opened FromBytes
  std::string_view bytes_; // whichever of the two backs this file
  DbxcHeader header_;
  Schema schema_;
};

/// Serialize + atomic write (tmp file + rename).
[[nodiscard]] Status WriteDbxcFile(const Table& table,
                                   const std::string& path);

}  // namespace dbx::storage
