// Storage-backend ingest/open benchmark (DESIGN.md §15).
//
// Measures the pluggable storage subsystem end to end on a generated
// UsedCars table (smoke: 20K rows; full: 1M, override with --rows):
//
//   * ingest_rows_per_sec       — StoreTable into the DBXC columnar format
//                                 (dictionary + bit-packed pages, fsync-free
//                                 tmp+rename)
//   * cold_open_ms              — Open + LoadTable (full materialization)
//                                 from a cold backend handle
//   * open_header_ms            — header-only SnapshotId probe (what a
//                                 restarting server pays per table before
//                                 deciding whether its caches stay warm)
//   * mmap_discretize_ms        — restart to first discretization: mmap
//                                 Open + Materialize + DiscretizedTable::Build
//                                 on the fresh table, including its first-use
//                                 value-order index build
//   * mem_discretize_ms         — the same DiscretizedTable::Build on the
//                                 in-memory table with its index warm
//   * sqlite_ingest_rows_per_sec— StoreTable through the SQLite adapter
//                                 (omitted when the build has no SQLite)
//
// Verification is live in both modes and independent of timing: the DBXC
// round trip must reproduce the exact content hash of the source table, and
// a CAD View built from the table loaded off the mapped file must serialize
// byte-identically to one built from the in-memory table. Emits
// BENCH_storage.json for the bench-trend gate (scripts/check.sh).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench/bench_util.h"
#include "src/core/cad_view_builder.h"
#include "src/core/cad_view_io.h"
#include "src/data/used_cars.h"
#include "src/stats/discretizer.h"
#include "src/storage/dbxc_format.h"
#include "src/storage/sqlite_backend.h"
#include "src/storage/storage.h"
#include "src/util/stopwatch.h"

namespace dbx {
namespace {

using storage::OpenStorageBackend;

struct Results {
  size_t rows = 0;
  double ingest_rows_per_sec = 0.0;
  double cold_open_ms = 0.0;
  double open_header_ms = 0.0;
  double mmap_discretize_ms = 0.0;
  double mem_discretize_ms = 0.0;
  double sqlite_ingest_rows_per_sec = -1.0;  // < 0: not built in
};

std::string SerializeStable(CadView view) {
  view.timings = CadViewTimings{};
  return CadViewToJson(view) + "\n---\n" + CadViewToCsv(view);
}

CadViewOptions BaseOptions() {
  CadViewOptions o;
  o.pivot_attr = "Make";
  o.pivot_values = {"Chevrolet", "Ford", "Jeep", "Toyota", "Honda"};
  o.max_compare_attrs = 5;
  o.seed = 7;
  return o;
}

bool WriteBenchJson(const std::string& path, bool smoke, const Results& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"storage_ingest\",\n"
               "  \"smoke\": %s,\n"
               "  \"rows\": %zu,\n"
               "  \"ingest_rows_per_sec\": %.1f,\n"
               "  \"cold_open_ms\": %.3f,\n"
               "  \"open_header_ms\": %.3f,\n"
               "  \"mmap_discretize_ms\": %.3f,\n"
               "  \"mem_discretize_ms\": %.3f",
               smoke ? "true" : "false", r.rows, r.ingest_rows_per_sec,
               r.cold_open_ms, r.open_header_ms, r.mmap_discretize_ms,
               r.mem_discretize_ms);
  // Omitted (not zeroed) when SQLite is not compiled in: benchdiff only
  // compares metrics present in both documents, so a SQLite-less build
  // cannot fake a throughput collapse against a SQLite-enabled baseline.
  if (r.sqlite_ingest_rows_per_sec >= 0) {
    std::fprintf(f, ",\n  \"sqlite_ingest_rows_per_sec\": %.1f",
                 r.sqlite_ingest_rows_per_sec);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return true;
}

int Run(int argc, char** argv) {
  bench::Args args = bench::ParseArgs(argc, argv);
  size_t rows = args.smoke ? 20'000 : 1'000'000;
  size_t reps = args.smoke ? 3 : 2;
  std::string out_path = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  bench::Header("storage_ingest: DBXC ingest, cold open, discretize");
  std::printf("mode=%s rows=%zu reps=%zu\n", args.smoke ? "smoke" : "full",
              rows, reps);

  Results r;
  r.rows = rows;
  const Table table = GenerateUsedCars(rows, 42);
  const uint64_t source_hash = storage::TableContentHash(table);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "dbx_bench_storage").string();
  std::filesystem::remove_all(dir);
  const std::string uri = "dbxc:" + dir;
  bool ok = true;

  // --- Ingest: StoreTable into the columnar format --------------------------
  double best = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    auto backend = OpenStorageBackend(uri);
    if (!backend.ok()) {
      std::fprintf(stderr, "FAIL: open %s: %s\n", uri.c_str(),
                   backend.status().ToString().c_str());
      return 1;
    }
    Stopwatch sw;
    Status stored = (*backend)->StoreTable("UsedCars", table);
    const double ms = sw.ElapsedMillis();
    if (!stored.ok()) {
      std::fprintf(stderr, "FAIL: ingest: %s\n", stored.ToString().c_str());
      return 1;
    }
    best = std::min(best, ms);
  }
  r.ingest_rows_per_sec = rows / (best / 1000.0);
  bench::Row("dbxc ingest", "StoreTable best-of-reps", best, "ms");
  bench::Row("dbxc ingest", "throughput", r.ingest_rows_per_sec / 1e6,
             "Mrows/s");

  // --- Cold open: full materialization --------------------------------------
  const std::string expect_id = storage::SnapshotIdFor("UsedCars", source_hash);
  best = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    auto backend = OpenStorageBackend(uri);
    if (!backend.ok()) return 1;
    auto snap = (*backend)->LoadTable("UsedCars");
    const double ms = sw.ElapsedMillis();
    if (!snap.ok()) {
      std::fprintf(stderr, "FAIL: cold open: %s\n",
                   snap.status().ToString().c_str());
      return 1;
    }
    best = std::min(best, ms);
    if (rep == 0 && snap->snapshot_id != expect_id) {
      std::fprintf(stderr, "FAIL: round trip changed content: %s vs %s\n",
                   snap->snapshot_id.c_str(), expect_id.c_str());
      ok = false;
    }
  }
  r.cold_open_ms = best;
  bench::Row("dbxc open", "Open+LoadTable cold", r.cold_open_ms, "ms");

  // --- Header-only snapshot probe -------------------------------------------
  best = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    auto backend = OpenStorageBackend(uri);
    if (!backend.ok()) return 1;
    Stopwatch sw;
    auto id = (*backend)->SnapshotId("UsedCars");
    const double ms = sw.ElapsedMillis();
    if (!id.ok()) {
      std::fprintf(stderr, "FAIL: snapshot probe: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    best = std::min(best, ms);
    if (rep == 0 && *id != expect_id) {
      std::fprintf(stderr, "FAIL: header snapshot id diverged\n");
      ok = false;
    }
  }
  r.open_header_ms = best;
  bench::Row("dbxc open", "SnapshotId header-only", r.open_header_ms, "ms");

  // --- Discretize a freshly opened file vs the warm in-memory table ---------
  const DiscretizerOptions dopts;
  const std::string file_path = dir + "/UsedCars.dbxc";
  std::string mmap_view_bytes;
  best = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    auto file = storage::DbxcTableFile::Open(file_path, storage::DbxcOpenOptions{});
    if (!file.ok()) {
      std::fprintf(stderr, "FAIL: mmap open: %s\n",
                   file.status().ToString().c_str());
      return 1;
    }
    auto loaded = file->Materialize();
    if (!loaded.ok()) {
      std::fprintf(stderr, "FAIL: materialize: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    auto dt = DiscretizedTable::Build(TableSlice::All(**loaded), dopts);
    const double ms = sw.ElapsedMillis();
    if (!dt.ok()) {
      std::fprintf(stderr, "FAIL: mmap discretize: %s\n",
                   dt.status().ToString().c_str());
      return 1;
    }
    best = std::min(best, ms);
    if (rep == 0) {
      auto view = BuildCadViewFromDiscretized(*dt, BaseOptions());
      if (!view.ok()) {
        std::fprintf(stderr, "FAIL: build from the mapped file: %s\n",
                     view.status().ToString().c_str());
        return 1;
      }
      mmap_view_bytes = SerializeStable(*view);
    }
  }
  r.mmap_discretize_ms = best;
  bench::Row("serving", "open+materialize+discretize fresh",
             r.mmap_discretize_ms, "ms");

  best = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    auto dt = DiscretizedTable::Build(TableSlice::All(table), dopts);
    const double ms = sw.ElapsedMillis();
    if (!dt.ok()) {
      std::fprintf(stderr, "FAIL: mem discretize: %s\n",
                   dt.status().ToString().c_str());
      return 1;
    }
    best = std::min(best, ms);
    if (rep == 0) {
      auto view = BuildCadViewFromDiscretized(*dt, BaseOptions());
      if (!view.ok()) return 1;
      if (SerializeStable(*view) != mmap_view_bytes) {
        std::fprintf(stderr,
                     "FAIL: CAD View from the mapped file diverged from the "
                     "in-memory build\n");
        ok = false;
      }
    }
  }
  r.mem_discretize_ms = best;
  bench::Row("serving", "discretize in memory warm", r.mem_discretize_ms,
             "ms");

  // --- SQLite adapter ingest (when compiled in) -----------------------------
  if (storage::SqliteBackendAvailable()) {
    const std::string db = dir + "/bench.db";
    best = 1e300;
    for (size_t rep = 0; rep < reps; ++rep) {
      std::filesystem::remove(db);
      auto backend = OpenStorageBackend("sqlite:" + db);
      if (!backend.ok()) return 1;
      Stopwatch sw;
      Status stored = (*backend)->StoreTable("UsedCars", table);
      const double ms = sw.ElapsedMillis();
      if (!stored.ok()) {
        std::fprintf(stderr, "FAIL: sqlite ingest: %s\n",
                     stored.ToString().c_str());
        return 1;
      }
      best = std::min(best, ms);
    }
    r.sqlite_ingest_rows_per_sec = rows / (best / 1000.0);
    bench::Row("sqlite ingest", "StoreTable best-of-reps", best, "ms");
    // The adapter must hand back the exact content it swallowed.
    auto backend = OpenStorageBackend("sqlite:" + db);
    if (!backend.ok()) return 1;
    auto snap = (*backend)->LoadTable("UsedCars");
    if (!snap.ok() || snap->snapshot_id != expect_id) {
      std::fprintf(stderr, "FAIL: sqlite round trip changed content\n");
      ok = false;
    }
  } else {
    std::printf("sqlite adapter not compiled in; skipping its ingest lane\n");
  }

  std::filesystem::remove_all(dir);

  if (!WriteBenchJson(out_path, args.smoke, r)) {
    ok = false;
  } else {
    std::printf("wrote %s\n", out_path.c_str());
  }

  bench::Section("summary");
  bench::PaperShape(
      "exploration assumes the summarized table outlives any one session: a "
      "content-addressed columnar store lets a restarting server re-serve "
      "the same snapshot — and the same warm caches — without re-ingesting");
  char measured[240];
  std::snprintf(measured, sizeof measured,
                "%zu rows: ingest %.2f Mrows/s, cold open %.1f ms, header "
                "probe %.2f ms, discretize fresh %.1f ms vs warm %.1f ms, "
                "identity %s",
                rows, r.ingest_rows_per_sec / 1e6, r.cold_open_ms,
                r.open_header_ms, r.mmap_discretize_ms, r.mem_discretize_ms,
                ok ? "held" : "VIOLATED");
  bench::Measured(measured);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dbx

int main(int argc, char** argv) { return dbx::Run(argc, argv); }
