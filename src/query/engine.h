// Copyright (c) DBExplorer reproduction authors.
// Statement execution: a catalog of registered tables, named CAD Views, and
// the bridge from parsed statements to the core builder. This is the
// programmatic equivalent of the paper's extended-SQL examples in §2.1.2.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cad_view.h"
#include "src/core/cad_view_builder.h"
#include "src/core/view_cache.h"
#include "src/obs/query_log.h"
#include "src/obs/trace.h"
#include "src/query/ast.h"
#include "src/query/table_catalog.h"
#include "src/util/result.h"

namespace dbx {

/// What a statement produced.
struct ExecOutcome {
  enum class Kind { kSelection, kCadView, kHighlight, kReorder, kDescribe,
                    kShow, kDrop, kExplain };
  Kind kind = Kind::kSelection;

  // kSelection
  const Table* table = nullptr;
  RowSet rows;
  std::vector<std::string> projected_columns;
  /// For aggregate (GROUP BY) queries: the materialized result table that
  /// `table` points at. Null for plain selections.
  std::shared_ptr<Table> derived;

  // kCadView / kHighlight / kReorder
  std::string view_name;
  const CadView* view = nullptr;

  // kHighlight
  std::vector<IUnitRef> highlights;

  /// Pre-rendered text (CAD View table, highlight summary, ...) for REPLs.
  std::string rendered;

  /// Canonical form of the executed statement (set by ExecuteSql; empty for
  /// pre-parsed statements) — what the query log records.
  std::string canonical_sql;

  /// View-cache probe outcome for CREATE CADVIEW statements:
  /// "hit" / "miss" / "uncacheable" / "no-cache"; "none" for every other
  /// statement kind.
  std::string cache_result = "none";
};

/// The exploratory-search engine: executes dialect statements against
/// registered tables and keeps created CAD Views by name.
class Engine {
 public:
  /// Registers an immutable table snapshot under `name`. The engine shares
  /// ownership of `table` until the name is registered again, and keys the
  /// attached cache with `dataset_id`: engines registering the same snapshot
  /// under the same id share cache entries (the server's sessions), and a
  /// storage backend's content-addressed id keeps an unchanged reopened
  /// table warm. Re-registering a name with a different id drops the old
  /// id's entries from the attached cache; the same id keeps them
  /// (TableCatalog::Register).
  void RegisterTableSnapshot(const std::string& name,
                             std::shared_ptr<const Table> table,
                             std::string dataset_id);

  /// Registers a caller-owned table, which must outlive its registration,
  /// under a fresh MakeSnapshotDatasetId(name): views built over any earlier
  /// registration of the name can never be served for this one.
  void RegisterTable(const std::string& name, const Table* table);

  /// Attributes this engine's cache inserts to `owner` for per-session byte
  /// budgeting in a shared ViewCache ("" = unattributed).
  void SetCacheOwner(std::string owner) { cache_owner_ = std::move(owner); }

  /// Default options applied to every CREATE CADVIEW (seed, discretizer,
  /// optimizations); statement clauses override M/K/pivot/attrs.
  void SetDefaultCadViewOptions(CadViewOptions options) {
    defaults_ = std::move(options);
  }

  /// Attaches a (possibly shared) view cache: repeated CREATE CADVIEW
  /// statements over an unchanged table short-circuit to the cached build.
  /// nullptr detaches.
  void SetViewCache(std::shared_ptr<ViewCache> cache) {
    cache_ = std::move(cache);
  }
  const std::shared_ptr<ViewCache>& view_cache() const { return cache_; }

  /// Attaches a span collector: CREATE CADVIEW statements emit cache_probe
  /// and pipeline-stage spans under `trace_parent`. EXPLAIN [ANALYZE]
  /// temporarily installs its own tracer regardless of this setting.
  void SetTracer(Tracer* tracer, uint64_t trace_parent = 0) {
    tracer_ = tracer == nullptr ? Tracer::Disabled() : tracer;
    trace_parent_ = trace_parent;
  }

  /// Attaches a query log: every ExecuteSql appends one record (scope label
  /// as the session field, canonical statement text, status, cache probe
  /// outcome, rendered bytes, total latency). The server dispatcher logs at
  /// the request layer instead — richer records with trace ids and stage
  /// latencies — so it leaves this unset to avoid double logging. nullptr
  /// detaches.
  void SetQueryLog(QueryLog* log, std::string scope_label = "engine") {
    query_log_ = log;
    query_log_scope_ = std::move(scope_label);
  }

  /// Parses and executes one statement.
  [[nodiscard]] Result<ExecOutcome> ExecuteSql(const std::string& sql);

  /// Executes an already-parsed statement.
  [[nodiscard]] Result<ExecOutcome> Execute(Statement statement);

  /// Fetches a stored view; Status::NotFound for unknown names.
  [[nodiscard]] Result<const CadView*> GetView(const std::string& name) const;

 private:
  [[nodiscard]] Result<ExecOutcome> ExecuteSelect(SelectStmt stmt);
  [[nodiscard]]
  Result<ExecOutcome> ExecuteAggregate(const Table& table, SelectStmt stmt);
  [[nodiscard]]
  Result<ExecOutcome> ExecuteCreateCadView(CreateCadViewStmt stmt);
  [[nodiscard]] Result<ExecOutcome> ExecuteHighlight(const HighlightStmt& stmt);
  [[nodiscard]] Result<ExecOutcome> ExecuteReorder(const ReorderStmt& stmt);
  [[nodiscard]] Result<ExecOutcome> ExecuteDescribe(const DescribeStmt& stmt);
  [[nodiscard]] Result<ExecOutcome> ExecuteShow(const ShowStmt& stmt);
  [[nodiscard]] Result<ExecOutcome> ExecuteDrop(const DropCadViewStmt& stmt);
  [[nodiscard]]
  Result<ExecOutcome> ExecuteExplain(ExplainStmt stmt, uint64_t parse_ns);

  TableCatalog catalog_;
  std::map<std::string, std::unique_ptr<CadView>> views_;
  CadViewOptions defaults_;
  std::shared_ptr<ViewCache> cache_;
  std::string cache_owner_;
  Tracer* tracer_ = Tracer::Disabled();
  uint64_t trace_parent_ = 0;
  QueryLog* query_log_ = nullptr;
  std::string query_log_scope_;
  /// Parse time of the statement ExecuteSql just handed to Execute — the
  /// "parse" span of an EXPLAIN ANALYZE (0 for pre-parsed statements).
  uint64_t last_parse_ns_ = 0;
};

}  // namespace dbx
