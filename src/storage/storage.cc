#include "src/storage/storage.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <limits>

#include "src/storage/dbxc_backend.h"
#include "src/storage/mem_backend.h"
#include "src/storage/sqlite_backend.h"
#include "src/util/hash.h"

namespace dbx::storage {

namespace {

inline void HashU64(uint64_t* h, uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  *h = Fnv1aAppend(*h, b, 8);
}

inline void HashString(uint64_t* h, const std::string& s) {
  HashU64(h, s.size());
  *h = Fnv1aAppend(*h, s.data(), s.size());
}

/// One fixed bit pattern for every NaN spelling, so a null numeric cell
/// hashes identically however it was produced (quiet/signaling, sign bit).
inline uint64_t CanonicalDoubleBits(double d) {
  if (std::isnan(d)) return 0x7ff8000000000000ULL;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t TableContentHash(const Table& table) {
  uint64_t h = kFnv1aOffset;
  HashU64(&h, table.num_rows());
  HashU64(&h, table.num_cols());
  for (const AttributeDef& a : table.schema().attrs()) {
    HashString(&h, a.name);
    HashU64(&h, a.type == AttrType::kCategorical ? 0 : 1);
    HashU64(&h, a.queriable ? 1 : 0);
  }
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const Column& col = table.col(c);
    if (col.type() == AttrType::kCategorical) {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        int32_t code = col.CodeAt(r);
        if (code == kNullCode) {
          HashU64(&h, 0);
        } else {
          HashU64(&h, 1);
          HashString(&h, col.DictString(code));
        }
      }
    } else {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        HashU64(&h, CanonicalDoubleBits(col.NumberAt(r)));
      }
    }
  }
  return h;
}

std::string SnapshotIdFor(const std::string& name, uint64_t content_hash) {
  static const char kHex[] = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<size_t>(i)] = kHex[content_hash & 0xf];
    content_hash >>= 4;
  }
  return name + "@" + hex;
}

Result<std::shared_ptr<Table>> CopyTable(const Table& table) {
  std::vector<Column> cols;
  cols.reserve(table.num_cols());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const Column& src = table.col(c);
    Column& dst = cols.emplace_back(src.type());
    if (src.type() == AttrType::kCategorical) {
      DBX_RETURN_IF_ERROR(dst.AppendCodes(src.codes(), src.dict()));
    } else {
      dst.AppendNumbers(src.numbers());
    }
  }
  auto copy = Table::FromColumns(table.schema(), std::move(cols),
                                 table.num_rows());
  if (!copy.ok()) return copy.status();
  return std::make_shared<Table>(std::move(*copy));
}

bool IsValidTableName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-')) {
      return false;
    }
  }
  return true;
}

StorageBackendFactory& StorageBackendFactory::Global() {
  static StorageBackendFactory* factory = [] {
    auto* f = new StorageBackendFactory();
    RegisterMemBackend(f);
    RegisterDbxcBackend(f);
    RegisterSqliteBackend(f);
    return f;
  }();
  return *factory;
}

void StorageBackendFactory::Register(const std::string& scheme,
                                     Creator creator) {
  MutexLock lock(mu_);
  creators_[scheme] = std::move(creator);
}

Result<std::unique_ptr<StorageBackend>> StorageBackendFactory::Create(
    const std::string& uri) const {
  auto parsed = ParseStorageUri(uri);
  if (!parsed.ok()) return parsed.status();
  const auto& [scheme, location] = *parsed;
  Creator creator;
  {
    MutexLock lock(mu_);
    auto it = creators_.find(scheme);
    if (it == creators_.end()) {
      std::string known;
      for (const auto& [s, unused] : creators_) {
        if (!known.empty()) known += ", ";
        known += s + ":";
      }
      return Status::NotFound("no storage backend for scheme '" + scheme +
                              ":' (registered: " + known + ")");
    }
    creator = it->second;
  }
  return creator(location);
}

std::vector<std::string> StorageBackendFactory::Schemes() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(creators_.size());
  for (const auto& [scheme, unused] : creators_) out.push_back(scheme);
  return out;
}

Result<std::pair<std::string, std::string>> ParseStorageUri(
    const std::string& uri) {
  size_t colon = uri.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "storage URI needs a '<scheme>:' prefix, got '" + uri + "'");
  }
  if (colon == 0) {
    return Status::InvalidArgument("storage URI has an empty scheme: '" + uri +
                                   "'");
  }
  std::string scheme = uri.substr(0, colon);
  std::transform(scheme.begin(), scheme.end(), scheme.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (char c : scheme) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("storage scheme must be alphanumeric: '" +
                                     uri + "'");
    }
  }
  return std::make_pair(std::move(scheme), uri.substr(colon + 1));
}

Result<std::unique_ptr<StorageBackend>> OpenStorageBackend(
    const std::string& uri) {
  auto backend = StorageBackendFactory::Global().Create(uri);
  if (!backend.ok()) return backend.status();
  DBX_RETURN_IF_ERROR((*backend)->Open());
  return backend;
}

}  // namespace dbx::storage
