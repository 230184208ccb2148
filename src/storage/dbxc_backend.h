// Copyright (c) DBExplorer reproduction authors.
// The `dbxc:` storage backend: a directory of <table>.dbxc files in the
// columnar format of dbxc_format.h. StoreTable writes atomically (tmp +
// rename); LoadTable mmaps, verifies checksums, and materializes; SnapshotId
// reads only the header, so probing whether a table changed is O(header).

#pragma once

#include <string>
#include <vector>

#include "src/storage/dbxc_format.h"
#include "src/storage/storage.h"

namespace dbx::storage {

class DbxcBackend : public StorageBackend {
 public:
  /// `location` is the directory holding the .dbxc files. Open() creates it
  /// (and parents) when missing.
  explicit DbxcBackend(std::string location);

  std::string scheme() const override { return "dbxc"; }
  std::string location() const override { return location_; }

  [[nodiscard]] Status Open() override;
  [[nodiscard]] Result<std::vector<std::string>> ListTables() override;
  [[nodiscard]] Result<TableSnapshot> LoadTable(
      const std::string& name) override;
  [[nodiscard]] Status StoreTable(const std::string& name,
                                  const Table& table) override;
  [[nodiscard]] Result<std::string> SnapshotId(
      const std::string& name) override;
  [[nodiscard]] Status Close() override;

  /// The file path `name` is (or would be) stored at.
  std::string PathFor(const std::string& name) const;

 private:
  [[nodiscard]] Status CheckOpen() const;
  /// Mmaps `name`'s file without materializing a Table.
  [[nodiscard]] Result<DbxcTableFile> OpenTableFile(
      const std::string& name, const DbxcOpenOptions& options = {});

  std::string location_;
  bool open_ = false;
};

/// Registers the `dbxc:` scheme. InvalidArgument at create time for an empty
/// location (a directory is required).
void RegisterDbxcBackend(StorageBackendFactory* factory);

}  // namespace dbx::storage
