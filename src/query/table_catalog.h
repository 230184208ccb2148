// Copyright (c) DBExplorer reproduction authors.
// The registry of named table snapshots behind Engine and the server's
// Dispatcher. Each name maps to a shared, immutable table and the snapshot
// id that keys its CAD View builds in a ViewCache. The catalog holds the
// one rule for replacing a registration (see Register).

#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/core/view_cache.h"
#include "src/relation/table.h"
#include "src/util/result.h"

namespace dbx {

/// Name -> (shared table, snapshot id). Not thread-safe: the owner locks.
class TableCatalog {
 public:
  struct Entry {
    std::shared_ptr<const Table> table;
    std::string snapshot_id;
  };

  /// Registers `table` under `name`, replacing any earlier registration
  /// (which then stays alive only as long as someone else shares it).
  /// When the earlier registration had a different snapshot id, that id's
  /// entries are dropped from `cache` (nullptr = no cache attached): they can
  /// never be hit again, so this reclaims their budget. The same id leaves
  /// the cache untouched, which is what keeps a reopened, unchanged snapshot
  /// warm.
  void Register(const std::string& name, std::shared_ptr<const Table> table,
                std::string snapshot_id, ViewCache* cache);

  /// The registration of `name`; NotFound when there is none.
  [[nodiscard]] Result<const Entry*> Find(const std::string& name) const;

  /// Every registration, ordered by name.
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, Entry> entries_;
};

}  // namespace dbx
