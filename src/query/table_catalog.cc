#include "src/query/table_catalog.h"

namespace dbx {

void TableCatalog::Register(const std::string& name,
                            std::shared_ptr<const Table> table,
                            std::string snapshot_id, ViewCache* cache) {
  auto it = entries_.find(name);
  if (it != entries_.end() && cache != nullptr &&
      it->second.snapshot_id != snapshot_id) {
    cache->InvalidateDataset(it->second.snapshot_id);
  }
  entries_[name] = {std::move(table), std::move(snapshot_id)};
}

Result<const TableCatalog::Entry*> TableCatalog::Find(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return &it->second;
}

}  // namespace dbx
