#include "src/server/dispatcher.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "src/obs/explain.h"
#include "src/obs/metrics.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace dbx::server {
namespace {

/// Splits "<first-token> <rest>"; rest keeps internal whitespace (statements
/// may span lines). Leading/trailing whitespace around the token is eaten.
std::pair<std::string, std::string> SplitToken(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {"", ""};
  size_t e = s.find_first_of(" \t\r\n", b);
  if (e == std::string::npos) return {s.substr(b), ""};
  size_t r = s.find_first_not_of(" \t\r\n", e);
  return {s.substr(b, e - b), r == std::string::npos ? "" : s.substr(r)};
}

/// Decrements the in-flight statement count on every exit path.
class InflightSlot {
 public:
  explicit InflightSlot(std::atomic<size_t>* inflight) : inflight_(inflight) {}
  ~InflightSlot() { inflight_->fetch_sub(1); }
  InflightSlot(const InflightSlot&) = delete;
  InflightSlot& operator=(const InflightSlot&) = delete;

 private:
  std::atomic<size_t>* inflight_;
};

}  // namespace

Dispatcher::Dispatcher(ServerOptions options)
    : options_(std::move(options)),
      cache_(std::make_shared<ViewCache>(options_.cache_budget_bytes)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : MetricsRegistry::Global()),
      tracer_(options_.tracer != nullptr ? options_.tracer
                                         : Tracer::Disabled()),
      query_log_(options_.query_log) {}

void Dispatcher::RegisterTableSnapshot(const std::string& name,
                                       std::shared_ptr<const Table> table,
                                       std::string snapshot_id) {
  MutexLock lock(mu_);
  catalog_.Register(name, std::move(table), std::move(snapshot_id),
                    cache_.get());
}

void Dispatcher::RegisterTable(const std::string& name, const Table* table) {
  // Aliasing constructor with no owner: a non-owning shared_ptr.
  RegisterTableSnapshot(name, {std::shared_ptr<const Table>(), table},
                        MakeSnapshotDatasetId(name));
}

Result<std::string> Dispatcher::OpenSession(ConnectionScope* scope) {
  MutexLock lock(mu_);
  if (sessions_.size() >= options_.max_sessions) {
    metrics_->GetCounter("dbx_server_admission_rejects_total")->Increment();
    return Status::Unavailable(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        " open); close a session or retry later");
  }
  auto session = std::make_shared<Session>();
  session->id = "s" + std::to_string(++next_session_id_);
  {
    // Uncontended (the session is not yet published in sessions_); taken so
    // every access to the guarded engine happens under the session mutex.
    MutexLock session_lock(session->mu);
    for (const auto& [name, entry] : catalog_.entries()) {
      session->engine.RegisterTableSnapshot(name, entry.table,
                                            entry.snapshot_id);
    }
    session->engine.SetDefaultCadViewOptions(options_.cad_defaults);
    session->engine.SetViewCache(cache_);
    session->engine.SetCacheOwner(session->id);
  }
  if (options_.session_cache_budget_bytes > 0) {
    cache_->SetOwnerBudget(session->id, options_.session_cache_budget_bytes);
  }
  sessions_[session->id] = session;
  if (scope != nullptr) scope->sessions.push_back(session->id);
  metrics_->GetCounter("dbx_server_sessions_opened_total")->Increment();
  metrics_->GetGauge("dbx_server_sessions_active")
      ->Set(static_cast<int64_t>(sessions_.size()));
  return session->id;
}

Status Dispatcher::CloseSession(const std::string& sid) {
  MutexLock lock(mu_);
  auto it = sessions_.find(sid);
  if (it == sessions_.end()) {
    return Status::NotFound("no session named '" + sid + "'");
  }
  sessions_.erase(it);
  // The budget record dies with the session; its cached views stay resident
  // for other sessions to hit (sharing them is the point of a global cache).
  cache_->SetOwnerBudget(sid, 0);
  metrics_->GetGauge("dbx_server_sessions_active")
      ->Set(static_cast<int64_t>(sessions_.size()));
  return Status::OK();
}

std::shared_ptr<Dispatcher::Session> Dispatcher::FindSession(
    const std::string& sid) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(sid);
  return it == sessions_.end() ? nullptr : it->second;
}

size_t Dispatcher::session_count() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

std::string Dispatcher::HandleExec(const std::string& sid,
                                   const std::string& sql,
                                   const std::string& trace_id) {
  Stopwatch timer;
  Status status = Status::OK();
  std::string body;
  std::string statement = sql;  // canonical form once a parse succeeds
  std::string cache_result = "none";
  std::vector<std::pair<std::string, double>> stages;

  if (sql.empty()) {
    status =
        Status::InvalidArgument("EXEC needs a statement: EXEC <sid> <stmt>");
  } else if (auto session = FindSession(sid); session == nullptr) {
    status = Status::NotFound("no session named '" + sid + "'");
  } else if (options_.max_inflight > 0 &&
             inflight_.fetch_add(1) >= options_.max_inflight) {
    inflight_.fetch_sub(1);
    metrics_->GetCounter("dbx_server_admission_rejects_total")->Increment();
    status = Status::Unavailable(
        "server saturated: " + std::to_string(options_.max_inflight) +
        " statements in flight; retry");
  } else {
    // Slot released on every path below; unlimited mode never took one.
    std::optional<InflightSlot> slot;
    if (options_.max_inflight > 0) slot.emplace(&inflight_);
    if (options_.exec_hook_for_test) options_.exec_hook_for_test(sql);

    // A session is one sequential conversation: statements addressed to it
    // are serialized here even when several connections send them.
    MutexLock session_lock(session->mu);
    // Root span per statement, tagged with the session and the client-sent
    // trace id; the engine hangs its cache_probe/pipeline spans beneath it.
    ScopedSpan root(tracer_, "exec");
    root.AddArg("session", sid);
    if (!trace_id.empty()) root.AddArg("trace", trace_id);
    const uint64_t root_id = root.id();
    session->engine.SetTracer(tracer_, root_id);
    auto outcome = session->engine.ExecuteSql(sql);
    session->engine.SetTracer(nullptr);
    if (outcome.ok()) {
      body = outcome->rendered;
      if (!outcome->canonical_sql.empty()) statement = outcome->canonical_sql;
      cache_result = outcome->cache_result;
    } else {
      status = outcome.status();
      root.AddArg("error", Status::CodeName(status.code()));
    }
    root.End();
    if (query_log_ != nullptr && root_id != 0) {
      stages = StageLatenciesFromSpans(tracer_->Events(), root_id);
    }
  }

  const std::string response = EncodeResponse(status, body);
  if (query_log_ != nullptr) {
    QueryLogRecord rec;
    rec.session = sid;
    rec.trace = trace_id;
    rec.statement = statement;
    rec.status = status.ok() ? "OK" : Status::CodeName(status.code());
    rec.cache = cache_result;
    rec.response_bytes = response.size();
    rec.total_ms = timer.ElapsedNanos() / 1e6;
    rec.stages = std::move(stages);
    query_log_->Append(std::move(rec));
  }
  return response;
}

std::string Dispatcher::RenderStats() const {
  const ViewCacheStats s = cache_->stats();
  std::string out;
  out += "hits=" + std::to_string(s.hits);
  out += " misses=" + std::to_string(s.misses);
  out += " inserts=" + std::to_string(s.inserts);
  out += " evictions=" + std::to_string(s.evictions);
  out += " invalidations=" + std::to_string(s.invalidations);
  out += " owner_budget_rejects=" + std::to_string(s.owner_budget_rejects);
  out += " entries=" + std::to_string(s.entries);
  out += " bytes_in_use=" + std::to_string(s.bytes_in_use);
  out += " sessions=" + std::to_string(session_count());
  return out;
}

std::string Dispatcher::RenderStatusz() const {
  std::string out;
  out += "sessions_active: " + std::to_string(session_count()) + "\n";
  const ViewCacheSnapshot snap = cache_->Snapshot();
  const ViewCacheStats& s = snap.stats;
  out += StringPrintf(
      "cache: hits=%llu misses=%llu inserts=%llu evictions=%llu "
      "invalidations=%llu entries=%zu bytes_in_use=%zu byte_budget=%zu\n",
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses),
      static_cast<unsigned long long>(s.inserts),
      static_cast<unsigned long long>(s.evictions),
      static_cast<unsigned long long>(s.invalidations), s.entries,
      s.bytes_in_use, s.byte_budget);
  out += StringPrintf("cache_entries: %zu (MRU first)\n", snap.entries.size());
  for (const ViewCacheEntryInfo& e : snap.entries) {
    out += StringPrintf("  %zuB hits=%llu build_ms=%s %s\n", e.bytes,
                        static_cast<unsigned long long>(e.hits),
                        FormatDouble(e.build_cost_ms, 3).c_str(),
                        e.canonical.c_str());
  }
  out += ThreadPoolStatsLine(ThreadPool::Shared().GetStats()) + "\n";
  return out;
}

std::string Dispatcher::HandleRequest(const std::string& payload,
                                      ConnectionScope* scope) {
  Stopwatch timer;
  metrics_->GetCounter("dbx_server_requests_total")->Increment();
  std::string response;
  auto [command, rest] = SplitToken(payload);
  if (command == "OPEN" && rest.empty()) {
    auto sid = OpenSession(scope);
    response = sid.ok() ? EncodeResponse(Status::OK(), *sid)
                        : EncodeResponse(sid.status(), "");
  } else if (command == "EXEC") {
    // Optional option token before the session id. Session ids never start
    // with '@', so this never mis-parses a pre-trace request.
    std::string trace_id;
    std::string args = rest;
    bool bad_option = false;
    if (auto [first, after] = SplitToken(rest);
        !first.empty() && first[0] == '@') {
      constexpr std::string_view kTracePrefix = "@trace=";
      if (first.size() > kTracePrefix.size() &&
          first.compare(0, kTracePrefix.size(), kTracePrefix) == 0) {
        trace_id = first.substr(kTracePrefix.size());
        args = after;
      } else {
        response = EncodeResponse(
            Status::InvalidArgument("unknown EXEC option '" + first +
                                    "'; expected @trace=<id>"),
            "");
        bad_option = true;
      }
    }
    if (!bad_option) {
      auto [sid, sql] = SplitToken(args);
      response = HandleExec(sid, sql, trace_id);
    }
  } else if (command == "CLOSE") {
    auto [sid, extra] = SplitToken(rest);
    if (sid.empty() || !extra.empty()) {
      response = EncodeResponse(
          Status::InvalidArgument("usage: CLOSE <session-id>"), "");
    } else {
      Status st = CloseSession(sid);
      if (st.ok() && scope != nullptr) {
        auto& owned = scope->sessions;
        owned.erase(std::remove(owned.begin(), owned.end(), sid),
                    owned.end());
      }
      response = st.ok() ? EncodeResponse(st, "closed " + sid)
                         : EncodeResponse(st, "");
    }
  } else if (command == "STATS" && rest.empty()) {
    response = EncodeResponse(Status::OK(), RenderStats());
  } else if (command == "METRICS" && rest.empty()) {
    response = EncodeResponse(Status::OK(), metrics_->PrometheusText());
  } else {
    response = EncodeResponse(
        Status::InvalidArgument(
            "unknown request '" + command +
            "'; expected OPEN, EXEC, CLOSE, STATS, or METRICS"),
        "");
  }
  if (response.compare(0, 3, "ERR") == 0) {
    metrics_->GetCounter("dbx_server_errors_total")->Increment();
  }
  metrics_->GetHistogram("dbx_server_request_ms")
      ->ObserveNs(timer.ElapsedNanos());
  return response;
}

void Dispatcher::ServeConnection(Connection* conn) {
  FrameDecoder decoder;
  ConnectionScope scope;
  bool sync_lost = false;
  for (;;) {
    auto chunk = conn->Read(64u << 10);
    if (!chunk.ok() || chunk->empty()) break;  // EOF or transport failure
    if (Status st = decoder.Feed(*chunk); !st.ok()) {
      // Framing is gone; answer once, well-formed, and hang up.
      metrics_->GetCounter("dbx_server_frame_errors_total")->Increment();
      if (auto frame = EncodeFrame(EncodeResponse(st, "")); frame.ok()) {
        (void)conn->Write(*frame);  // best effort: the peer may be gone
      }
      sync_lost = true;
      break;
    }
    bool write_failed = false;
    while (auto payload = decoder.Next()) {
      std::string response = HandleRequest(*payload, &scope);
      auto frame = EncodeFrame(response);
      if (!frame.ok()) {
        // The rendered body outgrew the frame limit; degrade to an error
        // response (always small) rather than killing the connection.
        frame = EncodeFrame(EncodeResponse(
            Status::OutOfRange("response exceeds the frame size limit; "
                               "narrow the statement"),
            ""));
      }
      if (!conn->Write(*frame).ok()) {
        write_failed = true;
        break;
      }
    }
    if (write_failed) break;
    if (!decoder.status().ok()) {
      metrics_->GetCounter("dbx_server_frame_errors_total")->Increment();
      if (auto frame = EncodeFrame(EncodeResponse(decoder.status(), ""));
          frame.ok()) {
        (void)conn->Write(*frame);  // best effort
      }
      sync_lost = true;
      break;
    }
  }
  if (!sync_lost && decoder.mid_frame()) {
    // EOF cut a frame short: tell the peer (it may still be reading) with a
    // well-formed error before hanging up.
    metrics_->GetCounter("dbx_server_frame_errors_total")->Increment();
    if (auto frame = EncodeFrame(EncodeResponse(
            Status::Corruption("connection closed mid-frame"), ""));
        frame.ok()) {
      (void)conn->Write(*frame);  // best effort
    }
  }
  conn->CloseWrite();
  // A connection's sessions die with it — no leak, whatever bytes arrived.
  for (const std::string& sid : scope.sessions) {
    (void)CloseSession(sid);  // raced CLOSE frames may have beaten us here
  }
}

Server::Server(Dispatcher* dispatcher, Listener* listener)
    : dispatcher_(dispatcher), listener_(listener) {}

Server::~Server() { Stop(); }

void Server::Start() {
  accept_thread_ = std::thread([this] {
    for (;;) {
      auto conn = listener_->Accept();
      if (!conn.ok()) break;  // Shutdown() or listener failure
      MutexLock lock(mu_);
      if (stopped_) break;
      connections_.push_back(std::move(*conn));
      Connection* raw = connections_.back().get();
      connection_threads_.emplace_back(
          [this, raw] { dispatcher_->ServeConnection(raw); });
    }
  });
}

void Server::Stop() {
  {
    MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  listener_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Wake serve loops blocked on clients that never disconnected; their
    // Read returns EOF/error and ServeConnection reaps the sessions.
    MutexLock lock(mu_);
    for (auto& conn : connections_) conn->Close();
  }
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  MutexLock lock(mu_);
  connections_.clear();
}

}  // namespace dbx::server
