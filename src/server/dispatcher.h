// Copyright (c) DBExplorer reproduction authors.
// The multi-session exploration service (DESIGN.md §12): a Dispatcher owns N
// exploration sessions over shared immutable registered tables and executes
// CADVIEW-dialect requests addressed to them. Sessions share one ViewCache
// (drill-downs in one session warm the next session's builds) under
// per-session byte budgets, and all builds fan out on the shared thread
// pool. Admission control bounds concurrent statement execution: past the
// limit a request is answered immediately with Status::Unavailable instead
// of queueing behind work the interactive caller can no longer see.
//
// The dispatcher is transport-agnostic — ServeConnection() runs the frame
// loop over any Connection (src/server/transport.h), so every behavior here
// is tested deterministically over the in-process loopback transport; the
// socket listeners only appear in the server binary and one smoke test.
//
// Request vocabulary (one request payload per frame, text):
//   OPEN                            -> OK\n<session-id>
//   EXEC [@trace=<id>] <sid> <stmt> -> OK\n<rendered statement output>
//   CLOSE <sid>                     -> OK\nclosed <sid>
//   STATS                           -> OK\n<shared-cache counters, one line>
//   METRICS                         -> OK\n<Prometheus text exposition>
// Errors come back as ERR frames (see protocol.h). Sessions opened on a
// connection are reaped when that connection ends — a dropped client can
// never leak sessions.
//
// Trace propagation (DESIGN.md §14): EXEC accepts one optional option token
// immediately after the verb. `@trace=<id>` tags the statement's root span
// (and query-log record) with the client-chosen trace id, so a merged
// client+server Chrome trace lines the two processes up per request. The
// token is strictly optional and session ids never start with '@', so
// requests without it are byte-for-byte the pre-trace wire encoding —
// the golden replay test pins that. An unrecognized '@' option is
// InvalidArgument, never a session-id guess.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/query/engine.h"
#include "src/query/table_catalog.h"
#include "src/server/protocol.h"
#include "src/server/transport.h"
#include "src/util/mutex.h"
#include "src/util/result.h"

namespace dbx {
class MetricsRegistry;
}  // namespace dbx

namespace dbx::server {

struct ServerOptions {
  /// Hard cap on concurrently open sessions; OPEN past it is Unavailable.
  size_t max_sessions = 64;

  /// Admission control: statements executing at once, across all sessions
  /// (the bounded queue has length zero — interactive callers are better
  /// served by an immediate Unavailable than by invisible queueing).
  /// 0 = unlimited.
  size_t max_inflight = 0;

  /// Byte budget of the shared ViewCache.
  size_t cache_budget_bytes = ViewCache::kDefaultByteBudget;

  /// Per-session byte budget inside the shared cache (0 = none): a session
  /// whose inserts would exceed it keeps its results but stops displacing
  /// other sessions' cached views.
  size_t session_cache_budget_bytes = 0;

  /// Build defaults applied to every session's engine (seed, discretizer,
  /// num_threads, optimizations).
  CadViewOptions cad_defaults;

  /// Instrument sink; nullptr = MetricsRegistry::Global().
  MetricsRegistry* metrics = nullptr;

  /// Span collector for per-statement root spans and engine pipeline spans;
  /// nullptr = tracing off. Must outlive the dispatcher.
  Tracer* tracer = nullptr;

  /// Structured query log appended to on every EXEC (one record per
  /// statement, including errors); nullptr = off. Must outlive the
  /// dispatcher.
  QueryLog* query_log = nullptr;

  /// Test seam: when set, called with the statement text inside EXEC, after
  /// admission but before execution — lets tests hold a statement in flight
  /// deterministically. Never set in production.
  std::function<void(const std::string&)> exec_hook_for_test;
};

/// Owns the sessions, the shared cache, and the table registry.
/// Thread-safe: any number of ServeConnection loops may run concurrently.
class Dispatcher {
 public:
  explicit Dispatcher(ServerOptions options);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Registers an immutable table snapshot for all *subsequently opened*
  /// sessions, keyed in the shared cache by `snapshot_id` (for a storage
  /// backend, storage::TableSnapshot::snapshot_id). The dispatcher and every
  /// session opened while this registration is current share ownership of
  /// the table, so an open session keeps the registration it saw at OPEN
  /// alive until CLOSE. Re-registering a name with a different id drops the
  /// old id's entries from the shared cache; the same id keeps them, which
  /// is the warm-reopen path (TableCatalog::Register).
  void RegisterTableSnapshot(const std::string& name,
                             std::shared_ptr<const Table> table,
                             std::string snapshot_id);

  /// Registers a caller-owned table, which must outlive the dispatcher,
  /// under a fresh MakeSnapshotDatasetId(name).
  void RegisterTable(const std::string& name, const Table* table);

  /// Sessions opened by one connection, reaped when its loop exits.
  struct ConnectionScope {
    std::vector<std::string> sessions;
  };

  /// The protocol state machine for one request: parses `payload`, executes,
  /// returns the response payload. Exposed so tests and the frame fuzzer can
  /// drive the grammar directly.
  std::string HandleRequest(const std::string& payload,
                            ConnectionScope* scope);

  /// Reads frames off `conn` until EOF or a framing error, answering each
  /// request in order. A framing error (oversized declared length) or a
  /// frame truncated by EOF is answered with a well-formed ERR frame before
  /// the connection closes. Reaps this connection's sessions on exit.
  void ServeConnection(Connection* conn);

  /// Closes `sid` (also detaching its cache budget). NotFound when unknown.
  [[nodiscard]] Status CloseSession(const std::string& sid);

  size_t session_count() const;
  const std::shared_ptr<ViewCache>& cache() const { return cache_; }
  MetricsRegistry* metrics() const { return metrics_; }
  const ServerOptions& options() const { return options_; }

  /// /statusz body: session count, shared-cache snapshot (aggregate counters
  /// plus per-entry diagnostics, MRU first), and thread-pool stats.
  std::string RenderStatusz() const;

 private:
  /// One exploration session: a dialect engine whose statements execute
  /// under the session mutex (a session is a sequential conversation even
  /// when several connections address it).
  struct Session {
    Mutex mu;
    /// The dialect engine. Configured under `mu` in OpenSession before the
    /// session is published, then every statement executes under `mu` —
    /// a session is one sequential conversation.
    Engine engine DBX_GUARDED_BY(mu);
    std::string id;  // immutable after OpenSession publishes the session
  };

  [[nodiscard]] Result<std::string> OpenSession(ConnectionScope* scope);
  std::shared_ptr<Session> FindSession(const std::string& sid) const;
  std::string HandleExec(const std::string& sid, const std::string& sql,
                         const std::string& trace_id);
  std::string RenderStats() const;

  const ServerOptions options_;
  std::shared_ptr<ViewCache> cache_;
  MetricsRegistry* metrics_;
  Tracer* tracer_;       // never null (Tracer::Disabled() when off)
  QueryLog* query_log_;  // nullable

  mutable Mutex mu_;
  TableCatalog catalog_ DBX_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Session>> sessions_
      DBX_GUARDED_BY(mu_);
  uint64_t next_session_id_ DBX_GUARDED_BY(mu_) = 0;

  std::atomic<size_t> inflight_{0};
};

/// Accept loop glue: spawns a thread per accepted connection running
/// Dispatcher::ServeConnection. Works over any Listener — loopback in
/// tests/benches, unix-domain/TCP in the server binary.
class Server {
 public:
  Server(Dispatcher* dispatcher, Listener* listener);
  ~Server();

  /// Spawns the accept thread. Call once.
  void Start();

  /// Shuts the listener down, closes any still-connected clients, and joins
  /// every connection thread.
  void Stop();

 private:
  Dispatcher* dispatcher_;
  Listener* listener_;
  std::thread accept_thread_;  // touched only by Start()/Stop() (caller API)
  Mutex mu_;
  std::vector<std::thread> connection_threads_ DBX_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Connection>> connections_ DBX_GUARDED_BY(mu_);
  bool stopped_ DBX_GUARDED_BY(mu_) = false;
};

}  // namespace dbx::server
