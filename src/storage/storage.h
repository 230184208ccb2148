// Copyright (c) DBExplorer reproduction authors.
// Pluggable storage subsystem (DESIGN.md §15): a `StorageBackend` interface
// behind a URI-scheme-keyed factory. Tables enter the exploration stack as
// backend-owned immutable snapshots — a shared_ptr<const Table> plus a
// content-addressed snapshot id — so the engines, sessions, and the server
// dispatcher never care where a table physically lives, and the ViewCache
// keys dataset identity off content: reopening an unchanged table reuses
// every cached CAD View.
//
// Built-in schemes (registered on first factory access):
//   mem:                 — volatile in-process store (the pre-storage engine)
//   dbxc:<directory>     — on-disk columnar files, one <table>.dbxc each
//                          (mmap-able; see dbxc_format.h)
//   sqlite:<file>        — ingest adapter over a SQLite database (compiled
//                          when SQLite3 is available, otherwise the scheme
//                          resolves to a clean NotSupported)

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/relation/table.h"
#include "src/util/mutex.h"
#include "src/util/result.h"
#include "src/util/thread_annotations.h"

namespace dbx::storage {

/// An immutable table owned by (or copied out of) a backend. `snapshot_id`
/// is "<name>@<16-hex content hash>" (see SnapshotIdFor) — two snapshots
/// with equal ids hold logically identical content, whatever backend or
/// process produced them, which is exactly the ViewCache's dataset-identity
/// contract.
struct TableSnapshot {
  std::string name;
  std::shared_ptr<const Table> table;
  std::string snapshot_id;
};

/// Deterministic FNV-1a (64-bit) hash of a table's logical content: schema
/// (names, types, queriability) and every cell in row order. Categorical
/// cells hash their string values, not their dictionary codes, so the hash
/// is invariant under dictionary permutation; numeric NaNs are canonicalized
/// so every null spelling hashes alike.
uint64_t TableContentHash(const Table& table);

/// "<name>@<16 lowercase hex digits of hash>".
std::string SnapshotIdFor(const std::string& name, uint64_t content_hash);

/// Deep-copies `table` (schema and all cells, in row order) column by
/// column through Column::AppendCodes/AppendNumbers. The copy's
/// dictionaries are in first-appearance order without unused entries, so it
/// equals a row-wise rebuild of `table` and serializes to the same bytes.
[[nodiscard]] Result<std::shared_ptr<Table>> CopyTable(const Table& table);

/// Table names acceptable to every backend: nonempty, at most 128 bytes of
/// [A-Za-z0-9_-] — no separators, so a name can never escape a backend's
/// directory.
bool IsValidTableName(const std::string& name);

/// Where tables live. Implementations are single-open: construct via the
/// factory, Open() once, use, Close() once (the destructor closes too).
/// Thread-compat: callers serialize access to one backend instance; the
/// snapshots it returns are immutable and freely shared across threads.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// The factory scheme this backend was created under ("mem", "dbxc", ...).
  virtual std::string scheme() const = 0;

  /// The location operand of the URI ("" for mem:).
  virtual std::string location() const = 0;

  /// Acquires the underlying resource (creates the directory, opens the
  /// database file, ...). Must be called before any other operation.
  [[nodiscard]] virtual Status Open() = 0;

  /// Names of every stored table, ascending.
  [[nodiscard]] virtual Result<std::vector<std::string>> ListTables() = 0;

  /// Loads `name` as an immutable snapshot. NotFound for unknown tables.
  [[nodiscard]] virtual Result<TableSnapshot> LoadTable(
      const std::string& name) = 0;

  /// Persists `table` under `name`, replacing any previous version.
  [[nodiscard]] virtual Status StoreTable(const std::string& name,
                                          const Table& table) = 0;

  /// The snapshot id `LoadTable(name)` would return, without materializing
  /// the table (file-backed implementations read only the header).
  [[nodiscard]] virtual Result<std::string> SnapshotId(
      const std::string& name) = 0;

  /// Releases the underlying resource. Idempotent.
  [[nodiscard]] virtual Status Close() = 0;
};

/// Registry of backend constructors keyed by URI scheme. The global instance
/// self-registers the built-in schemes on first access; additional schemes
/// (tests, experiments) can Register at any time.
class StorageBackendFactory {
 public:
  /// Receives the URI's location operand (everything after the first ':').
  using Creator = std::function<Result<std::unique_ptr<StorageBackend>>(
      const std::string& location)>;

  /// The process-wide factory with the built-in schemes registered.
  static StorageBackendFactory& Global();

  /// Registers (or replaces) the creator for `scheme`.
  void Register(const std::string& scheme, Creator creator);

  /// Parses "<scheme>:<location>" and constructs the backend (not yet
  /// opened). InvalidArgument for a malformed URI, NotFound for an
  /// unregistered scheme.
  [[nodiscard]] Result<std::unique_ptr<StorageBackend>> Create(
      const std::string& uri) const;

  /// Registered schemes, ascending.
  std::vector<std::string> Schemes() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, Creator> creators_ DBX_GUARDED_BY(mu_);
};

/// Splits "<scheme>:<location>". The scheme is lowercased; InvalidArgument
/// when there is no ':' or the scheme is empty.
[[nodiscard]] Result<std::pair<std::string, std::string>> ParseStorageUri(
    const std::string& uri);

/// Create + Open through the global factory — the one-call path the server
/// binary and the benches use.
[[nodiscard]] Result<std::unique_ptr<StorageBackend>> OpenStorageBackend(
    const std::string& uri);

}  // namespace dbx::storage
