#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/util/string_util.h"

namespace dbx {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Serializes one complete ("X") event under `pid`; Chrome expects
// microsecond floats.
void AppendChromeEvent(std::string* out, const TraceEvent& e, int pid) {
  *out += StringPrintf(
      "{\"name\":\"%s\",\"cat\":\"dbx\",\"ph\":\"X\",\"ts\":%.3f,"
      "\"dur\":%.3f,\"pid\":%d,\"tid\":%u,\"args\":{\"id\":%llu,"
      "\"parent\":%llu",
      JsonEscape(e.name).c_str(), e.start_ns / 1000.0, e.dur_ns / 1000.0, pid,
      e.tid, static_cast<unsigned long long>(e.id),
      static_cast<unsigned long long>(e.parent));
  if (!e.args.empty()) {
    *out += StringPrintf(",\"detail\":\"%s\"", JsonEscape(e.args).c_str());
  }
  *out += "}}";
}

}  // namespace

Tracer::Tracer(size_t capacity) : Tracer(true, capacity) {}

Tracer::Tracer(bool enabled, size_t capacity)
    : enabled_(enabled), capacity_(std::max<size_t>(capacity, 1)) {
  if (enabled_) {
    epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
    ring_.reserve(std::min<size_t>(capacity_, 1024));
  }
}

Tracer* Tracer::Disabled() {
  static Tracer* disabled = new Tracer(false, 1);
  return disabled;
}

uint64_t Tracer::NowNs() const {
  if (!enabled_) return 0;
  return static_cast<uint64_t>(std::max<int64_t>(
      SteadyNowNs() - epoch_ns_.load(std::memory_order_relaxed), 0));
}

uint64_t Tracer::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(TraceEvent event) {
  MutexLock lock(mu_);
  // Stable small thread index, first-come first-served under the lock.
  const std::thread::id self = std::this_thread::get_id();
  uint32_t tid = 0;
  bool found = false;
  for (const auto& [id, idx] : thread_index_) {
    if (id == self) {
      tid = idx;
      found = true;
      break;
    }
  }
  if (!found) {
    tid = static_cast<uint32_t>(thread_index_.size());
    thread_index_.emplace_back(self, tid);
  }
  event.tid = tid;
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_slot_] = std::move(event);
    next_slot_ = (next_slot_ + 1) % capacity_;
  }
}

uint64_t Tracer::Emit(std::string name, uint64_t parent, uint64_t start_ns,
                      uint64_t dur_ns, std::string args) {
  if (!enabled_) return 0;
  TraceEvent event;
  event.id = NextId();
  event.parent = parent;
  event.name = std::move(name);
  event.args = std::move(args);
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  const uint64_t id = event.id;
  Record(std::move(event));
  return id;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  {
    MutexLock lock(mu_);
    if (ring_.size() < capacity_) {
      out = ring_;
    } else {
      // Oldest-first: the slot about to be overwritten is the oldest.
      out.reserve(ring_.size());
      for (size_t i = 0; i < ring_.size(); ++i) {
        out.push_back(ring_[(next_slot_ + i) % capacity_]);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.id < b.id;
                   });
  return out;
}

uint64_t Tracer::dropped() const {
  MutexLock lock(mu_);
  return recorded_ - ring_.size();
}

void Tracer::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  next_slot_ = 0;
  recorded_ = 0;
  next_id_.store(1, std::memory_order_relaxed);
  thread_index_.clear();
  if (enabled_) epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
}

std::string Tracer::ToChromeJson() const {
  const std::vector<TraceEvent> events = Events();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    AppendChromeEvent(&out, e, /*pid=*/1);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string MergedChromeJson(const std::vector<NamedTraceSource>& sources) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < sources.size(); ++i) {
    const int pid = static_cast<int>(i) + 1;
    if (!first) out += ",";
    first = false;
    out += StringPrintf(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
        "\"args\":{\"name\":\"%s\"}}",
        pid, JsonEscape(sources[i].process_name).c_str());
    if (sources[i].tracer == nullptr || !sources[i].tracer->enabled()) {
      continue;
    }
    for (const TraceEvent& e : sources[i].tracer->Events()) {
      out += ",";
      AppendChromeEvent(&out, e, pid);
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open trace file: " + path);
  }
  const std::string json = ToChromeJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to trace file: " + path);
  }
  return Status::OK();
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, uint64_t parent)
    : tracer_(tracer), parent_(parent), name_(std::move(name)) {
  if (tracer_ == nullptr || !tracer_->enabled()) {
    tracer_ = nullptr;
    return;
  }
  id_ = tracer_->NextId();
  start_ns_ = tracer_->NowNs();
}

ScopedSpan::~ScopedSpan() { End(); }

ScopedSpan::ScopedSpan(ScopedSpan&& other) noexcept
    : tracer_(other.tracer_),
      id_(other.id_),
      parent_(other.parent_),
      start_ns_(other.start_ns_),
      name_(std::move(other.name_)),
      args_(std::move(other.args_)) {
  other.tracer_ = nullptr;
  other.id_ = 0;
}

void ScopedSpan::AddArg(const std::string& key, const std::string& value) {
  if (id_ == 0) return;
  if (!args_.empty()) args_ += ", ";
  args_ += key + "=" + value;
}

void ScopedSpan::AddArg(const std::string& key, uint64_t value) {
  AddArg(key, std::to_string(value));
}

void ScopedSpan::End() {
  if (tracer_ == nullptr || id_ == 0) return;
  TraceEvent event;
  event.id = id_;
  event.parent = parent_;
  event.name = std::move(name_);
  event.args = std::move(args_);
  event.start_ns = start_ns_;
  event.dur_ns = tracer_->NowNs() - start_ns_;
  tracer_->Record(std::move(event));
  id_ = 0;
  tracer_ = nullptr;
}

}  // namespace dbx
