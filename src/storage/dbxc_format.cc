#include "src/storage/dbxc_format.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/storage/storage.h"
#include "src/util/hash.h"

namespace dbx::storage {
namespace {

constexpr char kMagic[4] = {'D', 'B', 'X', 'C'};
// Sanity caps against corrupted headers allocating absurd buffers.
constexpr uint64_t kMaxRows = 1ULL << 40;
constexpr uint32_t kMaxCols = 1u << 16;
constexpr uint32_t kMaxNameLen = 1u << 20;
constexpr uint32_t kMaxHeaderLen = 1u << 26;
constexpr uint32_t kMaxStringLen = 1u << 24;

uint64_t Fnv1a(std::string_view bytes) {
  return Fnv1aAppend(kFnv1aOffset, bytes.data(), bytes.size());
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}
void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

uint32_t ReadU32At(std::string_view bytes, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + i]))
         << (8 * i);
  }
  return v;
}
uint64_t ReadU64At(std::string_view bytes, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[pos + i]))
         << (8 * i);
  }
  return v;
}

/// Bounds-checked cursor over the header section.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] Status ReadU32(uint32_t* v) {
    DBX_RETURN_IF_ERROR(Need(4));
    *v = ReadU32At(bytes_, pos_);
    pos_ += 4;
    return Status::OK();
  }
  [[nodiscard]] Status ReadU64(uint64_t* v) {
    DBX_RETURN_IF_ERROR(Need(8));
    *v = ReadU64At(bytes_, pos_);
    pos_ += 8;
    return Status::OK();
  }
  [[nodiscard]] Status ReadByte(uint8_t* b) {
    DBX_RETURN_IF_ERROR(Need(1));
    *b = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::OK();
  }
  [[nodiscard]] Status ReadString(std::string* s, uint32_t max_len) {
    uint32_t len = 0;
    DBX_RETURN_IF_ERROR(ReadU32(&len));
    if (len > max_len) return Status::Corruption("DBXC string too long");
    DBX_RETURN_IF_ERROR(Need(len));
    s->assign(bytes_.substr(pos_, len));
    pos_ += len;
    return Status::OK();
  }
  size_t remaining() const { return bytes_.size() - pos_; }
  std::string_view rest() const { return bytes_.substr(pos_); }

 private:
  [[nodiscard]] Status Need(size_t n) const {
    if (pos_ + n > bytes_.size()) {
      return Status::Corruption("truncated DBXC header");
    }
    return Status::OK();
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Bits needed for the largest packed symbol (dict_size itself, since null
/// packs as 0 and code c packs as c+1). At least 1 so a page always exists.
uint8_t BitWidthFor(uint32_t dict_size) {
  uint8_t w = static_cast<uint8_t>(std::bit_width(uint64_t{dict_size}));
  return w == 0 ? uint8_t{1} : w;
}

uint64_t PackedBytes(uint64_t num_rows, uint8_t width) {
  uint64_t words = (num_rows * width + 63) / 64;
  return words * 8;
}

uint64_t SymbolMask(uint8_t width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

std::string PackCodes(const std::vector<int32_t>& codes, uint8_t width) {
  uint64_t words = (static_cast<uint64_t>(codes.size()) * width + 63) / 64;
  std::vector<uint64_t> buf(words, 0);
  uint64_t bit = 0;
  for (int32_t code : codes) {
    uint64_t sym =
        code == kNullCode ? 0 : static_cast<uint64_t>(code) + 1;
    const uint64_t w = bit >> 6, off = bit & 63;
    buf[w] |= sym << off;
    if (off + width > 64) buf[w + 1] |= sym >> (64 - off);
    bit += width;
  }
  std::string out;
  out.reserve(words * 8);
  for (uint64_t word : buf) PutU64(&out, word);
  return out;
}

}  // namespace

std::string DbxcSerialize(const Table& table) {
  // Data section first: it fixes every column's offsets.
  std::string data;
  struct ColLayout {
    uint64_t dict_off = 0, dict_len = 0;
    uint64_t codes_off = 0, codes_len = 0;
    uint64_t values_off = 0, values_len = 0;
    uint8_t bit_width = 0;
  };
  std::vector<ColLayout> layout(table.num_cols());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const Column& col = table.col(c);
    ColLayout& l = layout[c];
    if (col.type() == AttrType::kCategorical) {
      l.dict_off = data.size();
      for (size_t d = 0; d < col.DictSize(); ++d) {
        PutString(&data, col.DictString(static_cast<int32_t>(d)));
      }
      PadTo8(&data);
      l.dict_len = data.size() - l.dict_off;
      l.bit_width = BitWidthFor(static_cast<uint32_t>(col.DictSize()));
      l.codes_off = data.size();
      data += PackCodes(col.codes(), l.bit_width);
      l.codes_len = data.size() - l.codes_off;
    } else {
      l.values_off = data.size();
      for (size_t r = 0; r < table.num_rows(); ++r) {
        double d = col.NumberAt(r);
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        PutU64(&data, bits);
      }
      l.values_len = data.size() - l.values_off;
    }
  }

  std::string header;
  PutU64(&header, TableContentHash(table));
  PutU64(&header, table.num_rows());
  PutU64(&header, data.size());
  PutU64(&header, Fnv1a(data));
  PutU32(&header, static_cast<uint32_t>(table.num_cols()));
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const AttributeDef& a = table.schema().attr(c);
    const ColLayout& l = layout[c];
    PutString(&header, a.name);
    header.push_back(a.type == AttrType::kCategorical ? 0 : 1);
    header.push_back(a.queriable ? 1 : 0);
    if (a.type == AttrType::kCategorical) {
      PutU32(&header, static_cast<uint32_t>(table.col(c).DictSize()));
      header.push_back(static_cast<char>(l.bit_width));
      PutU64(&header, l.dict_off);
      PutU64(&header, l.dict_len);
      PutU64(&header, l.codes_off);
      PutU64(&header, l.codes_len);
    } else {
      PutU64(&header, l.values_off);
      PutU64(&header, l.values_len);
    }
  }
  // Pad so the data section lands 8-aligned: the preamble is 20 bytes, so
  // header_len must be ≡ 4 (mod 8).
  while (header.size() % 8 != 4) header.push_back('\0');

  std::string out;
  out.append(kMagic, 4);
  PutU32(&out, kDbxcVersion);
  PutU32(&out, static_cast<uint32_t>(header.size()));
  PutU64(&out, Fnv1a(header));
  out += header;
  out += data;
  return out;
}

Result<DbxcHeader> ParseDbxcHeader(std::string_view file_bytes) {
  if (file_bytes.size() < kDbxcPreambleBytes) {
    return Status::Corruption("truncated DBXC preamble");
  }
  if (std::memcmp(file_bytes.data(), kMagic, 4) != 0) {
    return Status::Corruption("bad DBXC magic");
  }
  DbxcHeader h;
  h.version = ReadU32At(file_bytes, 4);
  if (h.version == 0) return Status::Corruption("bad DBXC version 0");
  if (h.version > kDbxcVersion) {
    return Status::NotSupported(
        "DBXC version " + std::to_string(h.version) +
        " is newer than this build understands (max " +
        std::to_string(kDbxcVersion) + ")");
  }
  const uint32_t header_len = ReadU32At(file_bytes, 8);
  if (header_len > kMaxHeaderLen) {
    return Status::Corruption("DBXC header length implausible");
  }
  if (file_bytes.size() < kDbxcPreambleBytes + header_len) {
    return Status::Corruption("truncated DBXC header");
  }
  const uint64_t header_checksum = ReadU64At(file_bytes, 12);
  std::string_view header_section =
      file_bytes.substr(kDbxcPreambleBytes, header_len);
  if (Fnv1a(header_section) != header_checksum) {
    return Status::Corruption("DBXC header checksum mismatch");
  }

  Cursor cur(header_section);
  DBX_RETURN_IF_ERROR(cur.ReadU64(&h.content_hash));
  DBX_RETURN_IF_ERROR(cur.ReadU64(&h.num_rows));
  if (h.num_rows > kMaxRows) {
    return Status::Corruption("DBXC row count implausible");
  }
  DBX_RETURN_IF_ERROR(cur.ReadU64(&h.data_len));
  DBX_RETURN_IF_ERROR(cur.ReadU64(&h.data_checksum));
  uint32_t num_cols = 0;
  DBX_RETURN_IF_ERROR(cur.ReadU32(&num_cols));
  if (num_cols > kMaxCols) {
    return Status::Corruption("DBXC column count implausible");
  }
  if (file_bytes.size() != kDbxcPreambleBytes + header_len + h.data_len) {
    return Status::Corruption(
        "DBXC file size disagrees with the declared sections");
  }

  h.cols.reserve(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    DbxcColumnMeta m;
    DBX_RETURN_IF_ERROR(cur.ReadString(&m.name, kMaxNameLen));
    uint8_t type = 0, queriable = 0;
    DBX_RETURN_IF_ERROR(cur.ReadByte(&type));
    DBX_RETURN_IF_ERROR(cur.ReadByte(&queriable));
    if (type > 1) return Status::Corruption("bad DBXC column type");
    m.type = type == 0 ? AttrType::kCategorical : AttrType::kNumeric;
    m.queriable = queriable != 0;
    if (m.type == AttrType::kCategorical) {
      DBX_RETURN_IF_ERROR(cur.ReadU32(&m.dict_size));
      if (static_cast<uint64_t>(m.dict_size) > h.num_rows) {
        return Status::Corruption(
            "DBXC dictionary larger than the row count");
      }
      uint8_t width = 0;
      DBX_RETURN_IF_ERROR(cur.ReadByte(&width));
      m.bit_width = width;
      if (m.bit_width != BitWidthFor(m.dict_size)) {
        return Status::Corruption("DBXC bit width disagrees with dictionary");
      }
      DBX_RETURN_IF_ERROR(cur.ReadU64(&m.dict_off));
      DBX_RETURN_IF_ERROR(cur.ReadU64(&m.dict_len));
      DBX_RETURN_IF_ERROR(cur.ReadU64(&m.codes_off));
      DBX_RETURN_IF_ERROR(cur.ReadU64(&m.codes_len));
      if (m.codes_len != PackedBytes(h.num_rows, m.bit_width)) {
        return Status::Corruption("DBXC code page size disagrees with rows");
      }
    } else {
      DBX_RETURN_IF_ERROR(cur.ReadU64(&m.values_off));
      DBX_RETURN_IF_ERROR(cur.ReadU64(&m.values_len));
      if (m.values_len != h.num_rows * 8) {
        return Status::Corruption("DBXC value page size disagrees with rows");
      }
    }
    // Page bounds: inside the data section, 8-aligned.
    for (auto [off, len] : {std::pair{m.dict_off, m.dict_len},
                            std::pair{m.codes_off, m.codes_len},
                            std::pair{m.values_off, m.values_len}}) {
      if (off % 8 != 0) return Status::Corruption("DBXC page misaligned");
      if (off > h.data_len || len > h.data_len - off) {
        return Status::Corruption("DBXC page outside the data section");
      }
    }
    h.cols.push_back(std::move(m));
  }
  // Whatever follows the last column must be alignment padding (zeros).
  if (cur.remaining() >= 8) {
    return Status::Corruption("trailing bytes after DBXC column metadata");
  }
  for (char c : cur.rest()) {
    if (c != '\0') {
      return Status::Corruption("nonzero DBXC header padding");
    }
  }
  return h;
}

Status ValidateDbxc(std::string_view file_bytes) {
  auto header = ParseDbxcHeader(file_bytes);
  if (!header.ok()) return header.status();
  std::string_view data =
      file_bytes.substr(file_bytes.size() - header->data_len);
  if (Fnv1a(data) != header->data_checksum) {
    return Status::Corruption("DBXC data checksum mismatch");
  }
  return Status::OK();
}

Result<DbxcTableFile> DbxcTableFile::Open(const std::string& path,
                                          const DbxcOpenOptions& options) {
  auto mmap = MmapFile::Open(path);
  if (!mmap.ok()) return mmap.status();
  DbxcTableFile file;
  file.mmap_ = std::move(*mmap);
  file.bytes_ = file.mmap_.bytes();
  DBX_RETURN_IF_ERROR(file.Init(options));
  return file;
}

Result<DbxcTableFile> DbxcTableFile::FromBytes(
    std::string bytes, const DbxcOpenOptions& options) {
  DbxcTableFile file;
  file.owned_ = std::move(bytes);
  file.bytes_ = file.owned_;
  DBX_RETURN_IF_ERROR(file.Init(options));
  return file;
}

Status DbxcTableFile::Init(const DbxcOpenOptions& options) {
  auto header = ParseDbxcHeader(bytes_);
  if (!header.ok()) return header.status();
  header_ = std::move(*header);
  if (options.verify_data_checksum) {
    std::string_view data = bytes_.substr(bytes_.size() - header_.data_len);
    if (Fnv1a(data) != header_.data_checksum) {
      return Status::Corruption("DBXC data checksum mismatch");
    }
  }
  std::vector<AttributeDef> attrs;
  attrs.reserve(header_.cols.size());
  for (const DbxcColumnMeta& m : header_.cols) {
    attrs.push_back({m.name, m.type, m.queriable});
  }
  auto schema = Schema::Make(std::move(attrs));
  if (!schema.ok()) {
    return Status::Corruption("bad DBXC schema: " + schema.status().message());
  }
  schema_ = std::move(*schema);
  return Status::OK();
}

std::string_view DbxcTableFile::data_section() const {
  return bytes_.substr(bytes_.size() - header_.data_len);
}

Result<std::vector<std::string>> DbxcTableFile::DictStrings(size_t c) const {
  const DbxcColumnMeta& m = header_.cols[c];
  if (m.type != AttrType::kCategorical) {
    return Status::InvalidArgument("column " + m.name + " is not categorical");
  }
  std::string_view block =
      data_section().substr(m.dict_off, m.dict_len);
  std::vector<std::string> dict;
  dict.reserve(m.dict_size);
  size_t pos = 0;
  for (uint32_t d = 0; d < m.dict_size; ++d) {
    if (pos + 4 > block.size()) {
      return Status::Corruption("truncated DBXC dictionary block");
    }
    uint32_t len = ReadU32At(block, pos);
    pos += 4;
    if (len > kMaxStringLen || pos + len > block.size()) {
      return Status::Corruption("DBXC dictionary entry out of bounds");
    }
    dict.emplace_back(block.substr(pos, len));
    pos += len;
  }
  // The remainder must be alignment padding.
  if (block.size() - pos >= 8) {
    return Status::Corruption("oversized DBXC dictionary padding");
  }
  return dict;
}

Status DbxcTableFile::DecodeCodes(size_t c, std::vector<int32_t>* out) const {
  const DbxcColumnMeta& m = header_.cols[c];
  if (m.type != AttrType::kCategorical) {
    return Status::InvalidArgument("column " + m.name + " is not categorical");
  }
  std::string_view page = data_section().substr(m.codes_off, m.codes_len);
  const size_t rows = num_rows();
  const uint8_t width = m.bit_width;
  const uint64_t mask = SymbolMask(width);
  out->clear();
  out->resize(rows);
  uint64_t bit = 0;
  for (size_t r = 0; r < rows; ++r, bit += width) {
    const uint64_t w = bit >> 6, off = bit & 63;
    uint64_t v = ReadU64At(page, w * 8) >> off;
    if (off + width > 64) {
      v |= ReadU64At(page, (w + 1) * 8) << (64 - off);
    }
    v &= mask;
    if (v > m.dict_size) {
      return Status::Corruption("DBXC packed symbol out of dictionary range");
    }
    (*out)[r] = v == 0 ? kNullCode : static_cast<int32_t>(v - 1);
  }
  return Status::OK();
}

Status DbxcTableFile::CopyNumbers(size_t c, std::vector<double>* out) const {
  const DbxcColumnMeta& m = header_.cols[c];
  if (m.type != AttrType::kNumeric) {
    return Status::InvalidArgument("column " + m.name + " is not numeric");
  }
  std::string_view page = data_section().substr(m.values_off, m.values_len);
  const size_t rows = num_rows();
  out->clear();
  out->resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    uint64_t bits = ReadU64At(page, r * 8);
    std::memcpy(&(*out)[r], &bits, sizeof(double));
  }
  return Status::OK();
}

Result<std::shared_ptr<Table>> DbxcTableFile::Materialize() const {
  std::vector<Column> cols;
  cols.reserve(num_cols());
  std::vector<int32_t> codes;
  std::vector<double> nums;
  for (size_t c = 0; c < num_cols(); ++c) {
    Column& col = cols.emplace_back(header_.cols[c].type);
    if (col.type() == AttrType::kCategorical) {
      DBX_RETURN_IF_ERROR(DecodeCodes(c, &codes));
      auto dict = DictStrings(c);
      if (!dict.ok()) return dict.status();
      DBX_RETURN_IF_ERROR(col.AppendCodes(codes, *dict));
    } else {
      DBX_RETURN_IF_ERROR(CopyNumbers(c, &nums));
      col.AppendNumbers(nums);
    }
  }
  auto table = Table::FromColumns(schema_, std::move(cols), num_rows());
  if (!table.ok()) return table.status();
  return std::make_shared<Table>(std::move(*table));
}

Status WriteDbxcFile(const Table& table, const std::string& path) {
  const std::string bytes = DbxcSerialize(table);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return Status::NotFound("cannot open for write: " + tmp);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!f) return Status::Internal("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::OK();
}

}  // namespace dbx::storage
