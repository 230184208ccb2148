#include "src/obs/query_log.h"

#include <map>

#include "src/util/string_util.h"

namespace dbx {

QueryLog::QueryLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

QueryLog::~QueryLog() {
  MutexLock lock(mu_);
  if (sink_ != nullptr) std::fclose(sink_);
}

void QueryLog::SetSlowThresholdMs(double ms) {
  MutexLock lock(mu_);
  slow_threshold_ms_ = ms;
}

void QueryLog::SetSlowOnly(bool slow_only) {
  MutexLock lock(mu_);
  slow_only_ = slow_only;
}

Status QueryLog::AttachFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open query log file: " + path);
  }
  MutexLock lock(mu_);
  if (sink_ != nullptr) std::fclose(sink_);
  sink_ = f;
  return Status::OK();
}

uint64_t QueryLog::Append(QueryLogRecord record) {
  MutexLock lock(mu_);
  record.slow =
      slow_threshold_ms_ > 0.0 && record.total_ms >= slow_threshold_ms_;
  if (slow_only_ && !record.slow) {
    ++filtered_;
    return 0;
  }
  record.seq = next_seq_++;
  ++appended_;
  if (sink_ != nullptr) {
    const std::string line = ToJsonLine(record, /*include_timings=*/true);
    std::fwrite(line.data(), 1, line.size(), sink_);
    std::fputc('\n', sink_);
    std::fflush(sink_);
  }
  const uint64_t seq = record.seq;
  ring_.push_back(std::move(record));
  if (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  return seq;
}

std::vector<QueryLogRecord> QueryLog::Records() const {
  MutexLock lock(mu_);
  return std::vector<QueryLogRecord>(ring_.begin(), ring_.end());
}

uint64_t QueryLog::appended() const {
  MutexLock lock(mu_);
  return appended_;
}

uint64_t QueryLog::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

uint64_t QueryLog::filtered() const {
  MutexLock lock(mu_);
  return filtered_;
}

void QueryLog::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  appended_ = 0;
  dropped_ = 0;
  filtered_ = 0;
}

std::string QueryLog::ToJsonLine(const QueryLogRecord& record,
                                 bool include_timings) {
  std::string out = "{";
  out += StringPrintf("\"seq\":%llu",
                      static_cast<unsigned long long>(record.seq));
  out += ",\"session\":\"" + JsonEscape(record.session) + "\"";
  out += ",\"trace\":\"" + JsonEscape(record.trace) + "\"";
  out += ",\"statement\":\"" + JsonEscape(record.statement) + "\"";
  out += ",\"status\":\"" + JsonEscape(record.status) + "\"";
  out += ",\"cache\":\"" + JsonEscape(record.cache) + "\"";
  out += StringPrintf(
      ",\"response_bytes\":%llu",
      static_cast<unsigned long long>(record.response_bytes));
  if (include_timings) {
    out += StringPrintf(",\"total_ms\":%.3f", record.total_ms);
    out += record.slow ? ",\"slow\":true" : ",\"slow\":false";
    out += ",\"stages\":{";
    bool first = true;
    for (const auto& [name, ms] : record.stages) {
      if (!first) out += ",";
      first = false;
      out += "\"" + JsonEscape(name) + "\":" + StringPrintf("%.3f", ms);
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::string QueryLog::ToJsonl(bool include_timings) const {
  std::string out;
  for (const QueryLogRecord& r : Records()) {
    out += ToJsonLine(r, include_timings);
    out += "\n";
  }
  return out;
}

std::vector<std::pair<std::string, double>> StageLatenciesFromSpans(
    const std::vector<TraceEvent>& events, uint64_t root_id) {
  if (root_id == 0) return {};
  std::map<uint64_t, uint64_t> parent_of;
  for (const TraceEvent& e : events) parent_of[e.id] = e.parent;
  auto under_root = [&](uint64_t id) {
    // Walk up the parent chain; bound the walk so a (theoretical) cycle from
    // ring eviction cannot hang us.
    for (size_t hops = 0; hops < events.size() + 1; ++hops) {
      if (id == root_id) return true;
      auto it = parent_of.find(id);
      if (it == parent_of.end() || it->second == 0) return false;
      id = it->second;
    }
    return false;
  };
  std::map<std::string, double> by_name;
  for (const TraceEvent& e : events) {
    if (e.id == root_id) continue;  // proper descendants only
    if (!under_root(e.parent)) continue;
    by_name[e.name] += e.dur_ns / 1e6;
  }
  return std::vector<std::pair<std::string, double>>(by_name.begin(),
                                                     by_name.end());
}

}  // namespace dbx
