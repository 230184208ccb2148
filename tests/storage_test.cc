// Tests for the pluggable storage subsystem (DESIGN.md §15): URI parsing and
// the scheme factory, the mem: backend, the DBXC on-disk columnar format
// (byte-identical round trips, materialization column by column, and clean
// Status for every durability edge — truncation, bad magic, checksum
// mismatches, versions from the future), the dbxc: directory backend, and
// the sqlite: ingest adapter (auto-skipped when the build has no SQLite3).

#include "src/storage/storage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/data/used_cars.h"
#include "src/stats/discretizer.h"
#include "src/storage/dbxc_backend.h"
#include "src/storage/dbxc_format.h"
#include "src/storage/mem_backend.h"
#include "src/storage/mmap_file.h"
#include "src/storage/sqlite_backend.h"
#include "src/util/hash.h"

#if defined(DBX_HAVE_SQLITE)
#include <sqlite3.h>
#endif

namespace dbx::storage {
namespace {

/// A fresh per-test scratch directory under the system temp dir.
std::string FreshDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("dbx_storage_test_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Mixed-type table with nulls in both kinds of column and a repeated
/// categorical value (exercises dictionary interning and the null symbol).
Table MakeSample() {
  auto schema = Schema::Make({{"Make", AttrType::kCategorical, true},
                              {"Price", AttrType::kNumeric, true},
                              {"Notes", AttrType::kCategorical, false}});
  Table t(std::move(*schema));
  auto row = [&](Value a, Value b, Value c) {
    ASSERT_TRUE(t.AppendRow({std::move(a), std::move(b), std::move(c)}).ok());
  };
  row(Value("Ford"), Value(21000.0), Value("clean"));
  row(Value("Toyota"), Value(18500.5), Value::Null());
  row(Value("Ford"), Value::Null(), Value("dealer"));
  row(Value::Null(), Value(9999.0), Value("clean"));
  row(Value("Jeep"), Value(30125.25), Value("salvage"));
  row(Value("Toyota"), Value(18500.5), Value("clean"));
  return t;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (size_t c = 0; c < a.num_cols(); ++c) {
    EXPECT_EQ(a.schema().attr(c).name, b.schema().attr(c).name);
    EXPECT_EQ(a.schema().attr(c).type, b.schema().attr(c).type);
    EXPECT_EQ(a.schema().attr(c).queriable, b.schema().attr(c).queriable);
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_cols(); ++c) {
      EXPECT_EQ(a.At(r, c), b.At(r, c)) << "cell (" << r << ", " << c << ")";
    }
  }
  EXPECT_EQ(TableContentHash(a), TableContentHash(b));
}

// --- URIs and the factory ----------------------------------------------------

TEST(StorageUriTest, ParsesAndLowercasesScheme) {
  auto p = ParseStorageUri("DBXC:/some/dir");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->first, "dbxc");
  EXPECT_EQ(p->second, "/some/dir");

  auto empty_loc = ParseStorageUri("mem:");
  ASSERT_TRUE(empty_loc.ok());
  EXPECT_EQ(empty_loc->first, "mem");
  EXPECT_EQ(empty_loc->second, "");
}

TEST(StorageUriTest, RejectsMalformedUris) {
  EXPECT_TRUE(ParseStorageUri("no-colon").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStorageUri(":/leading").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStorageUri("bad scheme:x").status().IsInvalidArgument());
}

TEST(StorageFactoryTest, BuiltinSchemesRegistered) {
  auto schemes = StorageBackendFactory::Global().Schemes();
  auto has = [&](const std::string& s) {
    return std::find(schemes.begin(), schemes.end(), s) != schemes.end();
  };
  EXPECT_TRUE(has("mem"));
  EXPECT_TRUE(has("dbxc"));
  EXPECT_TRUE(has("sqlite"));
}

TEST(StorageFactoryTest, UnknownSchemeIsNotFound) {
  EXPECT_TRUE(StorageBackendFactory::Global()
                  .Create("warehouse:/x")
                  .status()
                  .IsNotFound());
}

TEST(StorageFactoryTest, RegisteredCreatorWins) {
  StorageBackendFactory factory;
  RegisterMemBackend(&factory);
  auto backend = factory.Create("MEM:ignored");
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ((*backend)->scheme(), "mem");
  EXPECT_EQ((*backend)->location(), "ignored");
}

TEST(StorageTest, TableNameValidation) {
  EXPECT_TRUE(IsValidTableName("UsedCars"));
  EXPECT_TRUE(IsValidTableName("a-b_c9"));
  EXPECT_FALSE(IsValidTableName(""));
  EXPECT_FALSE(IsValidTableName("has space"));
  EXPECT_FALSE(IsValidTableName("../escape"));
  EXPECT_FALSE(IsValidTableName(std::string(129, 'x')));
}

TEST(StorageTest, SnapshotIdFormat) {
  EXPECT_EQ(SnapshotIdFor("T", 0), "T@0000000000000000");
  EXPECT_EQ(SnapshotIdFor("T", 0xDEADBEEFULL), "T@00000000deadbeef");
}

TEST(StorageTest, ContentHashSeesSchemaAndCells) {
  Table a = MakeSample();
  Table b = MakeSample();
  EXPECT_EQ(TableContentHash(a), TableContentHash(b));

  // One more row: different content, different hash.
  ASSERT_TRUE(b.AppendRow({Value("Ford"), Value(1.0), Value("x")}).ok());
  EXPECT_NE(TableContentHash(a), TableContentHash(b));

  // Same cells, different queriability: different hash (the CAD View would
  // differ, so the snapshots must not share cache entries).
  auto schema = Schema::Make({{"Make", AttrType::kCategorical, true},
                              {"Price", AttrType::kNumeric, true},
                              {"Notes", AttrType::kCategorical, true}});
  Table c(std::move(*schema));
  for (size_t r = 0; r < a.num_rows(); ++r) {
    ASSERT_TRUE(c.AppendRow({a.At(r, 0), a.At(r, 1), a.At(r, 2)}).ok());
  }
  EXPECT_NE(TableContentHash(a), TableContentHash(c));
}

TEST(StorageTest, CopyTablePreservesContent) {
  Table t = MakeSample();
  auto copy = CopyTable(t);
  ASSERT_TRUE(copy.ok());
  ExpectTablesEqual(t, **copy);
}

TEST(StorageTest, CopyTableReinternsLikeRowWiseRebuild) {
  // A dictionary with an unused entry and out-of-order codes: the copy
  // keeps the cells but rebuilds the dictionary in first-appearance order.
  auto schema = Schema::Make({{"Make", AttrType::kCategorical, true}});
  Table t(std::move(*schema));
  Column& make = t.col(0);
  make.Intern("unused");
  make.Intern("Jeep");
  ASSERT_TRUE(t.AppendRow({Value("Ford")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("Jeep")}).ok());
  auto copy = CopyTable(t);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  ExpectTablesEqual(t, **copy);
  EXPECT_EQ((*copy)->col(0).dict(), (std::vector<std::string>{"Ford", "Jeep"}));
}

// --- mem: --------------------------------------------------------------------

TEST(MemBackendTest, LifecycleAndSnapshotIdentity) {
  auto backend = OpenStorageBackend("mem:");
  ASSERT_TRUE(backend.ok());
  Table t = MakeSample();
  ASSERT_TRUE((*backend)->StoreTable("cars", t).ok());

  auto listed = (*backend)->ListTables();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, std::vector<std::string>{"cars"});

  auto snap = (*backend)->LoadTable("cars");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->name, "cars");
  EXPECT_EQ(snap->snapshot_id, SnapshotIdFor("cars", TableContentHash(t)));
  ExpectTablesEqual(t, *snap->table);

  auto id = (*backend)->SnapshotId("cars");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, snap->snapshot_id);

  EXPECT_TRUE((*backend)->LoadTable("nope").status().IsNotFound());
  EXPECT_TRUE((*backend)->SnapshotId("nope").status().IsNotFound());
  EXPECT_TRUE((*backend)->StoreTable("../bad", t).IsInvalidArgument());

  // The snapshot is a deep copy: growing the source later must not change
  // what was stored.
  ASSERT_TRUE(t.AppendRow({Value("New"), Value(2.0), Value::Null()}).ok());
  auto again = (*backend)->LoadTable("cars");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->table->num_rows(), 6u);
  EXPECT_EQ(again->snapshot_id, snap->snapshot_id);

  ASSERT_TRUE((*backend)->Close().ok());
  EXPECT_TRUE((*backend)->ListTables().status().IsFailedPrecondition());
}

TEST(MemBackendTest, OperationsRequireOpen) {
  MemBackend backend("");
  EXPECT_TRUE(backend.ListTables().status().IsFailedPrecondition());
  EXPECT_TRUE(backend.LoadTable("x").status().IsFailedPrecondition());
}

// --- DBXC format -------------------------------------------------------------

TEST(DbxcFormatTest, RoundTripIsByteIdentical) {
  Table t = MakeSample();
  const std::string bytes = DbxcSerialize(t);
  ASSERT_TRUE(ValidateDbxc(bytes).ok());

  auto file = DbxcTableFile::FromBytes(bytes);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->num_rows(), t.num_rows());
  EXPECT_EQ(file->num_cols(), t.num_cols());
  EXPECT_EQ(file->content_hash(), TableContentHash(t));

  auto back = file->Materialize();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectTablesEqual(t, **back);

  // write(load(write(T))) == write(T): the format is canonical.
  EXPECT_EQ(DbxcSerialize(**back), bytes);
}

TEST(DbxcFormatTest, EmptyAndAllNullTablesRoundTrip) {
  auto schema = Schema::Make({{"A", AttrType::kCategorical, true},
                              {"B", AttrType::kNumeric, true}});
  Table empty(std::move(*schema));
  auto efile = DbxcTableFile::FromBytes(DbxcSerialize(empty));
  ASSERT_TRUE(efile.ok()) << efile.status().ToString();
  auto eback = efile->Materialize();
  ASSERT_TRUE(eback.ok());
  ExpectTablesEqual(empty, **eback);

  auto schema2 = Schema::Make({{"A", AttrType::kCategorical, true},
                               {"B", AttrType::kNumeric, true}});
  Table nulls(std::move(*schema2));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(nulls.AppendRow({Value::Null(), Value::Null()}).ok());
  }
  auto nfile = DbxcTableFile::FromBytes(DbxcSerialize(nulls));
  ASSERT_TRUE(nfile.ok()) << nfile.status().ToString();
  auto nback = nfile->Materialize();
  ASSERT_TRUE(nback.ok());
  ExpectTablesEqual(nulls, **nback);
}

TEST(DbxcFormatTest, WideDictionaryCrossesWordBoundaries) {
  // 300 distinct values force a 9-bit width, so packed symbols straddle u64
  // word boundaries; a second column keeps width 1 (the all-null case).
  auto schema = Schema::Make({{"Id", AttrType::kCategorical, true},
                              {"Empty", AttrType::kCategorical, true}});
  Table t(std::move(*schema));
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value("v" + std::to_string(i)), Value::Null()}).ok());
  }
  auto file = DbxcTableFile::FromBytes(DbxcSerialize(t));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->header().cols[0].bit_width, 9);
  EXPECT_EQ(file->header().cols[1].bit_width, 1);
  auto back = file->Materialize();
  ASSERT_TRUE(back.ok());
  ExpectTablesEqual(t, **back);
}

// --- DBXC durability edges ---------------------------------------------------

TEST(DbxcDurabilityTest, TruncationAtEveryBoundaryIsClean) {
  const std::string bytes = DbxcSerialize(MakeSample());
  // Preamble cut, header cut, data cut — every prefix must fail cleanly.
  for (size_t len : {size_t{0}, size_t{3}, size_t{10}, size_t{19}, size_t{40},
                     bytes.size() - 1}) {
    ASSERT_LT(len, bytes.size());
    auto st = ValidateDbxc(bytes.substr(0, len));
    EXPECT_TRUE(st.IsCorruption()) << "prefix length " << len << ": "
                                   << st.ToString();
  }
  // Trailing garbage is just as corrupt as missing bytes.
  EXPECT_TRUE(ValidateDbxc(bytes + "x").IsCorruption());
}

TEST(DbxcDurabilityTest, BadMagicIsCorruption) {
  std::string bytes = DbxcSerialize(MakeSample());
  bytes[0] = 'X';
  EXPECT_TRUE(ValidateDbxc(bytes).IsCorruption());
  EXPECT_TRUE(DbxcTableFile::FromBytes(bytes).status().IsCorruption());
}

TEST(DbxcDurabilityTest, HeaderCorruptionIsDetected) {
  std::string bytes = DbxcSerialize(MakeSample());
  bytes[kDbxcPreambleBytes + 2] ^= 0x40;  // inside the header section
  auto st = ValidateDbxc(bytes);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("header checksum"), std::string::npos);
}

TEST(DbxcDurabilityTest, DataCorruptionIsDetected) {
  std::string bytes = DbxcSerialize(MakeSample());
  bytes[bytes.size() - 1] ^= 0x01;  // inside the data section
  auto st = ValidateDbxc(bytes);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("data checksum"), std::string::npos);
  // The default open verifies data too.
  EXPECT_TRUE(DbxcTableFile::FromBytes(bytes).status().IsCorruption());
}

TEST(DbxcDurabilityTest, VersionFromTheFutureIsNotSupported) {
  std::string bytes = DbxcSerialize(MakeSample());
  bytes[4] = static_cast<char>(kDbxcVersion + 1);  // u32 LE version field
  auto st = ValidateDbxc(bytes);
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
  EXPECT_NE(st.message().find("newer"), std::string::npos);
}

// --- dbxc: backend -----------------------------------------------------------

TEST(DbxcBackendTest, StoreLoadListSnapshot) {
  const std::string dir = FreshDir("dbxc_backend");
  auto backend = OpenStorageBackend("dbxc:" + dir);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  Table t = MakeSample();
  ASSERT_TRUE((*backend)->StoreTable("cars", t).ok());
  ASSERT_TRUE((*backend)->StoreTable("cars2", t).ok());

  auto listed = (*backend)->ListTables();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, (std::vector<std::string>{"cars", "cars2"}));

  auto snap = (*backend)->LoadTable("cars");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ExpectTablesEqual(t, *snap->table);
  EXPECT_EQ(snap->snapshot_id, SnapshotIdFor("cars", TableContentHash(t)));

  // Header-only probe agrees with the full load.
  auto id = (*backend)->SnapshotId("cars");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, snap->snapshot_id);

  EXPECT_TRUE((*backend)->LoadTable("missing").status().IsNotFound());

  // Reopening the directory sees the same tables with the same ids.
  ASSERT_TRUE((*backend)->Close().ok());
  auto reopened = OpenStorageBackend("dbxc:" + dir);
  ASSERT_TRUE(reopened.ok());
  auto id2 = (*reopened)->SnapshotId("cars");
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, snap->snapshot_id);
  std::filesystem::remove_all(dir);
}

TEST(DbxcBackendTest, StoreReplacesAtomically) {
  const std::string dir = FreshDir("dbxc_replace");
  auto backend = OpenStorageBackend("dbxc:" + dir);
  ASSERT_TRUE(backend.ok());
  Table t = MakeSample();
  ASSERT_TRUE((*backend)->StoreTable("cars", t).ok());
  auto id1 = (*backend)->SnapshotId("cars");
  ASSERT_TRUE(id1.ok());

  ASSERT_TRUE(t.AppendRow({Value("New"), Value(5.0), Value::Null()}).ok());
  ASSERT_TRUE((*backend)->StoreTable("cars", t).ok());
  auto id2 = (*backend)->SnapshotId("cars");
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id1, *id2);
  // No leftover temp files from the atomic write.
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(DbxcBackendTest, CorruptFileSurfacesAsStatusNotCrash) {
  const std::string dir = FreshDir("dbxc_corrupt");
  auto backend = OpenStorageBackend("dbxc:" + dir);
  ASSERT_TRUE(backend.ok());
  ASSERT_TRUE((*backend)->StoreTable("cars", MakeSample()).ok());

  // Truncate the stored file mid-data.
  DbxcBackend* dbxc = static_cast<DbxcBackend*>(backend->get());
  const std::string path = dbxc->PathFor("cars");
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_TRUE((*backend)->LoadTable("cars").status().IsCorruption());
  EXPECT_TRUE((*backend)->SnapshotId("cars").status().IsCorruption());
  std::filesystem::remove_all(dir);
}

TEST(MmapFileTest, MissingAndEmptyFiles) {
  EXPECT_TRUE(MmapFile::Open("/nonexistent/definitely/missing")
                  .status()
                  .IsNotFound());
  const std::string dir = FreshDir("mmap");
  const std::string path = dir + "/empty";
  { std::ofstream f(path); }
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->bytes().empty());
  std::filesystem::remove_all(dir);
}

// --- sqlite: -----------------------------------------------------------------

TEST(SqliteBackendTest, UnavailableSchemeFailsCleanly) {
  if (SqliteBackendAvailable()) {
    GTEST_SKIP() << "SQLite compiled in; the stub path is not reachable";
  }
  auto backend = StorageBackendFactory::Global().Create("sqlite:/tmp/x.db");
  EXPECT_TRUE(backend.status().IsNotSupported());
}

#if defined(DBX_HAVE_SQLITE)

TEST(SqliteBackendTest, RoundTripPreservesSchemaAndContent) {
  const std::string dir = FreshDir("sqlite_rt");
  auto backend = OpenStorageBackend("sqlite:" + dir + "/t.db");
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  Table t = MakeSample();
  ASSERT_TRUE((*backend)->StoreTable("cars", t).ok());
  auto listed = (*backend)->ListTables();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, std::vector<std::string>{"cars"});

  auto snap = (*backend)->LoadTable("cars");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  // Full fidelity through SQL types: cells, attribute types, and the
  // non-queriable Notes flag (via the dbx_storage_meta sidecar) — so the
  // snapshot id equals the mem:/dbxc: id of the same logical table.
  ExpectTablesEqual(t, *snap->table);
  EXPECT_EQ(snap->snapshot_id, SnapshotIdFor("cars", TableContentHash(t)));
  ASSERT_TRUE((*backend)->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(SqliteBackendTest, SniffsExternalTableTypes) {
  const std::string dir = FreshDir("sqlite_sniff");
  const std::string db_path = dir + "/ext.db";
  {
    // An "external" table no dbx tool wrote: no sidecar metadata.
    sqlite3* db = nullptr;
    ASSERT_EQ(sqlite3_open(db_path.c_str(), &db), SQLITE_OK);
    ASSERT_EQ(sqlite3_exec(db,
                           "CREATE TABLE listings (city TEXT, price REAL, "
                           "stars INTEGER, mixed TEXT);"
                           "INSERT INTO listings VALUES "
                           "('Rome', 120.5, 4, '12'),"
                           "('Oslo', NULL, 5, 'abc'),"
                           "(NULL, 99.0, NULL, NULL);",
                           nullptr, nullptr, nullptr),
              SQLITE_OK);
    sqlite3_close(db);
  }
  auto backend = OpenStorageBackend("sqlite:" + db_path);
  ASSERT_TRUE(backend.ok());
  auto snap = (*backend)->LoadTable("listings");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const Schema& schema = snap->table->schema();
  ASSERT_EQ(schema.size(), 4u);
  EXPECT_EQ(schema.attr(0).type, AttrType::kCategorical);  // TEXT
  EXPECT_EQ(schema.attr(1).type, AttrType::kNumeric);      // REAL + NULL
  EXPECT_EQ(schema.attr(2).type, AttrType::kNumeric);      // INTEGER + NULL
  EXPECT_EQ(schema.attr(3).type, AttrType::kCategorical);  // mixed digits/text
  EXPECT_TRUE(schema.attr(0).queriable);                   // no sidecar: default
  EXPECT_EQ(snap->table->num_rows(), 3u);
  EXPECT_EQ(snap->table->At(0, 0), Value("Rome"));
  EXPECT_EQ(snap->table->At(1, 2), Value(5.0));
  EXPECT_TRUE(snap->table->At(2, 3).is_null());
  std::filesystem::remove_all(dir);
}

TEST(SqliteBackendTest, MissingTableIsNotFound) {
  const std::string dir = FreshDir("sqlite_missing");
  auto backend = OpenStorageBackend("sqlite:" + dir + "/t.db");
  ASSERT_TRUE(backend.ok());
  EXPECT_TRUE((*backend)->LoadTable("nope").status().IsNotFound());
  std::filesystem::remove_all(dir);
}

#endif  // DBX_HAVE_SQLITE

// --- Load semantics on hand-built files ---------------------------------------

// DbxcSerialize always writes first-appearance dictionaries, so these files
// are built byte by byte: they pin what loading does with dictionaries the
// writer never produces. A load must equal the row-wise AppendRow rebuild of
// the same cells, in content hash and in re-serialized bytes.

/// One column as it is stored: a categorical column's dictionary and per-row
/// codes (kNullCode = null), or a numeric column's raw per-row f64 bits.
struct StoredColumn {
  std::string name;
  AttrType type = AttrType::kCategorical;
  std::vector<std::string> dict;
  std::vector<int32_t> codes;
  std::vector<uint64_t> bits;
};

void PutLe(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t Fnv(const std::string& s) {
  return Fnv1aAppend(kFnv1aOffset, s.data(), s.size());
}

/// Encodes `cols` (each `rows` long) in the layout documented in
/// dbxc_format.h, with correct checksums.
std::string HandBuiltDbxc(const std::vector<StoredColumn>& cols, size_t rows) {
  std::string data, meta;
  for (const StoredColumn& col : cols) {
    PutLe(&meta, col.name.size(), 4);
    meta += col.name;
    meta.push_back(col.type == AttrType::kCategorical ? 0 : 1);
    meta.push_back(1);  // queriable
    if (col.type == AttrType::kCategorical) {
      const uint64_t dict_off = data.size();
      for (const std::string& s : col.dict) {
        PutLe(&data, s.size(), 4);
        data += s;
      }
      while (data.size() % 8 != 0) data.push_back('\0');
      const uint64_t dict_len = data.size() - dict_off;
      int width = std::max(1, static_cast<int>(std::bit_width(col.dict.size())));
      std::vector<uint64_t> words((rows * width + 63) / 64, 0);
      for (size_t r = 0; r < rows; ++r) {
        const uint64_t sym = static_cast<uint64_t>(col.codes[r] + 1);
        const size_t bit = r * width;
        words[bit / 64] |= sym << (bit % 64);
        if (bit % 64 + width > 64) words[bit / 64 + 1] |= sym >> (64 - bit % 64);
      }
      const uint64_t codes_off = data.size();
      for (uint64_t w : words) PutLe(&data, w, 8);
      PutLe(&meta, col.dict.size(), 4);
      meta.push_back(static_cast<char>(width));
      for (uint64_t v : {dict_off, dict_len, codes_off, data.size() - codes_off}) {
        PutLe(&meta, v, 8);
      }
    } else {
      PutLe(&meta, data.size(), 8);
      PutLe(&meta, rows * 8, 8);
      for (uint64_t b : col.bits) PutLe(&data, b, 8);
    }
  }
  std::string header;
  PutLe(&header, 0, 8);  // content hash: loading does not read it
  PutLe(&header, rows, 8);
  PutLe(&header, data.size(), 8);
  PutLe(&header, Fnv(data), 8);
  PutLe(&header, cols.size(), 4);
  header += meta;
  while (header.size() % 8 != 4) header.push_back('\0');
  std::string out = "DBXC";
  PutLe(&out, kDbxcVersion, 4);
  PutLe(&out, header.size(), 4);
  PutLe(&out, Fnv(header), 8);
  return out + header + data;
}

/// The same cells appended row by row through Table::AppendRow.
Table RowWiseReference(const std::vector<StoredColumn>& cols, size_t rows) {
  std::vector<AttributeDef> attrs;
  for (const StoredColumn& col : cols) attrs.push_back({col.name, col.type, true});
  Table t(std::move(*Schema::Make(std::move(attrs))));
  std::vector<Value> row(cols.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c].type == AttrType::kCategorical) {
        const int32_t code = cols[c].codes[r];
        row[c] = code == kNullCode
                     ? Value::Null()
                     : Value(cols[c].dict[static_cast<size_t>(code)]);
      } else {
        double d;
        std::memcpy(&d, &cols[c].bits[r], sizeof(d));
        row[c] = std::isnan(d) ? Value::Null() : Value(d);
      }
    }
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

/// Loads the hand-built file, checks it and its discretization against the
/// row-wise reference, and returns it for case-specific checks.
std::shared_ptr<Table> ExpectLoadsLikeRowWise(
    const std::vector<StoredColumn>& cols, size_t rows) {
  auto file = DbxcTableFile::FromBytes(HandBuiltDbxc(cols, rows));
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  if (!file.ok()) return nullptr;
  auto loaded = file->Materialize();
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return nullptr;
  const Table reference = RowWiseReference(cols, rows);
  EXPECT_EQ(TableContentHash(**loaded), TableContentHash(reference));
  EXPECT_EQ(DbxcSerialize(**loaded), DbxcSerialize(reference));
  // Discretizing the loaded table sees the same re-interned values.
  const DiscretizerOptions options;
  auto from_loaded =
      DiscretizedTable::Build(TableSlice::All(**loaded), options);
  auto built = DiscretizedTable::Build(TableSlice::All(reference), options);
  EXPECT_TRUE(from_loaded.ok() && built.ok());
  if (from_loaded.ok() && built.ok()) {
    for (size_t a = 0; a < built->num_attrs(); ++a) {
      EXPECT_EQ(from_loaded->attr(a).labels, built->attr(a).labels);
      EXPECT_EQ(from_loaded->attr(a).codes, built->attr(a).codes);
    }
  }
  return *loaded;
}

TEST(DbxcLoadTest, OutOfOrderDictionaryIsReinterned) {
  const StoredColumn col{"Make", AttrType::kCategorical,
                         {"Jeep", "Ford", "Toyota"}, {2, 1, kNullCode, 2, 0}, {}};
  auto t = ExpectLoadsLikeRowWise({col}, 5);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->col(0).dict(),
            (std::vector<std::string>{"Toyota", "Ford", "Jeep"}));
  EXPECT_EQ(t->col(0).codes(), (std::vector<int32_t>{0, 1, kNullCode, 0, 2}));
}

TEST(DbxcLoadTest, DuplicateDictionaryStringsMerge) {
  const StoredColumn col{"Make", AttrType::kCategorical,
                         {"Ford", "Jeep", "Ford"}, {2, 1, 0, 2}, {}};
  auto t = ExpectLoadsLikeRowWise({col}, 4);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->col(0).dict(), (std::vector<std::string>{"Ford", "Jeep"}));
  EXPECT_EQ(t->col(0).codes(), (std::vector<int32_t>{0, 1, 0, 0}));
}

TEST(DbxcLoadTest, UnusedDictionaryEntriesAreDropped) {
  const StoredColumn col{"Make",
                         AttrType::kCategorical,
                         {"never", "Ford", "unused", "Jeep"},
                         {1, 3, 1, kNullCode},
                         {}};
  auto t = ExpectLoadsLikeRowWise({col}, 4);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->col(0).dict(), (std::vector<std::string>{"Ford", "Jeep"}));
}

TEST(DbxcLoadTest, NonCanonicalNaNLoadsAsNull) {
  const StoredColumn col{"Price",
                         AttrType::kNumeric,
                         {},
                         {},
                         {0x40d4880000000000ULL,   // 21000.0
                          0xfff4000000000123ULL,   // negative signaling NaN
                          0x7ff0000000000001ULL,   // smallest NaN payload
                          0x8000000000000000ULL}}; // -0.0 stays -0.0
  const StoredColumn make{"Make", AttrType::kCategorical,
                          {"Ford", "Jeep"}, {1, 1, kNullCode, 0}, {}};
  auto t = ExpectLoadsLikeRowWise({col, make}, 4);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->col(0).IsNullAt(1));
  EXPECT_TRUE(t->col(0).IsNullAt(2));
  EXPECT_TRUE(std::signbit(t->col(0).NumberAt(3)));
  EXPECT_EQ(t->col(1).dict(), (std::vector<std::string>{"Jeep", "Ford"}));
}

// --- Persisted identities ------------------------------------------------------

// These values must never move: a changed content hash cold-starts every
// cache warmed under the old snapshot id, and changed DBXC bytes (whose
// checksums are FNV-1a) strand existing stores. Golden values: never
// regenerate them from the code under test.
TEST(StorageHashPinTest, ContentHashAndDbxcBytesArePinned) {
  const Table table = GenerateUsedCars(2000, 7);
  EXPECT_EQ(TableContentHash(table), 15844596987035814135ull);
  // Exactly the bytes the dbxc: backend writes for the table.
  const std::string bytes = DbxcSerialize(table);
  EXPECT_EQ(bytes.size(), 71768u);
  EXPECT_EQ(Fnv1aAppend(kFnv1aOffset, bytes.data(), bytes.size()),
            15053384729550892791ull);
}

}  // namespace
}  // namespace dbx::storage
