#include "src/core/view_cache.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>

#include "src/obs/metrics.h"

namespace dbx {
namespace {

// Process-wide cache metrics (DESIGN.md §10). Every ViewCache instance feeds
// the same series; per-instance numbers stay available via stats()/Snapshot().
struct CacheMetrics {
  Counter* hits;
  Counter* misses;
  Counter* inserts;
  Counter* evictions;
  Counter* invalidations;
  Counter* refinement_seeds;
  Counter* oversize_rejects;
  Gauge* bytes_in_use;
  Gauge* entries;

  static CacheMetrics& Get() {
    static CacheMetrics* m = [] {
      MetricsRegistry* r = MetricsRegistry::Global();
      auto* cm = new CacheMetrics();
      cm->hits = r->GetCounter("dbx_cache_hits_total");
      cm->misses = r->GetCounter("dbx_cache_misses_total");
      cm->inserts = r->GetCounter("dbx_cache_inserts_total");
      cm->evictions = r->GetCounter("dbx_cache_evictions_total");
      cm->invalidations = r->GetCounter("dbx_cache_invalidations_total");
      cm->refinement_seeds = r->GetCounter("dbx_cache_refinement_seeds_total");
      cm->oversize_rejects = r->GetCounter("dbx_cache_oversize_rejects_total");
      cm->bytes_in_use = r->GetGauge("dbx_cache_bytes_in_use");
      cm->entries = r->GetGauge("dbx_cache_entries");
      return cm;
    }();
    return *m;
  }
};

// Length-prefixed component framing: "tag|len:payload;". Delimiters inside
// payloads cannot collide with component boundaries because the length is
// explicit.
void AppendComponent(std::string* out, const char* tag,
                     const std::string& payload) {
  out->append(tag);
  out->push_back('|');
  out->append(std::to_string(payload.size()));
  out->push_back(':');
  out->append(payload);
  out->push_back(';');
}

std::string FingerprintDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MakeSnapshotDatasetId(const std::string& name) {
  // Monotonic process-wide counter: ids are unique per registration, and
  // ordered registrations get ordered ids (handy in logs). Never reused, so
  // a key built from a snapshot id can only ever match builds over the very
  // same registration.
  static std::atomic<uint64_t> next{1};
  return name + "@" + std::to_string(next.fetch_add(1));
}

std::string CanonicalizePredicate(const std::string& predicate) {
  std::string out;
  out.reserve(predicate.size());
  bool pending_space = false;
  for (char c : predicate) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
        c == '\v') {
      if (!out.empty()) pending_space = true;
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
  }
  return out;
}

ViewCacheKey ViewCacheKey::Make(std::string dataset,
                                std::vector<std::string> predicates,
                                std::string pivot_attr,
                                std::vector<std::string> pivot_values,
                                std::string params) {
  ViewCacheKey key;
  key.dataset = std::move(dataset);
  for (std::string& p : predicates) p = CanonicalizePredicate(p);
  std::sort(predicates.begin(), predicates.end());
  predicates.erase(std::unique(predicates.begin(), predicates.end()),
                   predicates.end());
  key.predicates = std::move(predicates);
  key.pivot_attr = std::move(pivot_attr);
  key.pivot_values = std::move(pivot_values);
  key.params = std::move(params);

  AppendComponent(&key.canonical, "ds", key.dataset);
  for (const std::string& p : key.predicates) {
    AppendComponent(&key.canonical, "pred", p);
  }
  AppendComponent(&key.canonical, "pivot", key.pivot_attr);
  for (const std::string& v : key.pivot_values) {
    AppendComponent(&key.canonical, "pv", v);
  }
  AppendComponent(&key.canonical, "params", key.params);
  return key;
}

std::optional<std::string> CadViewOptionsFingerprint(
    const CadViewOptions& options) {
  if (options.preference) {
    // An opaque preference functor cannot be fingerprinted; builds using one
    // must bypass the cache.
    return std::nullopt;
  }
  // Every field below changes the built view's bytes; num_threads is
  // deliberately absent (output-neutral by the determinism contract), and
  // pivot_attr/pivot_values live in the ViewCacheKey proper.
  std::string fp;
  auto add = [&fp](const char* name, const std::string& value) {
    AppendComponent(&fp, name, value);
  };
  for (const std::string& a : options.user_compare_attrs) add("uca", a);
  add("mca", std::to_string(options.max_compare_attrs));
  add("k", std::to_string(options.iunits_per_value));
  add("l", std::to_string(options.generated_iunits));
  add("cf", FingerprintDouble(options.candidate_factor));
  add("autol", options.auto_l ? "1" : "0");
  add("autolmax", FingerprintDouble(options.auto_l_max_factor));
  add("bins", std::to_string(options.discretizer.max_numeric_bins));
  add("binstrat",
      std::to_string(static_cast<int>(options.discretizer.strategy)));
  add("ranker",
      std::to_string(static_cast<int>(options.feature_selection.ranker)));
  add("sig", FingerprintDouble(options.feature_selection.significance));
  add("mdc", std::to_string(options.labeler.max_display_count));
  add("fratio", FingerprintDouble(options.labeler.frequency_ratio));
  add("alpha", FingerprintDouble(options.similarity_alpha));
  add("topk", std::to_string(static_cast<int>(options.topk_algorithm)));
  add("kmi", std::to_string(options.kmeans_max_iterations));
  add("seed", std::to_string(options.seed));
  add("fss", std::to_string(options.feature_selection_sample));
  add("cs", std::to_string(options.clustering_sample));
  add("adl", options.adaptive_l ? "1" : "0");
  add("adlt", std::to_string(options.adaptive_l_threshold));
  add("adlm", std::to_string(options.adaptive_l_min));
  // Shard policy (sharding.num_shards / min_rows_per_shard) is deliberately
  // absent, like num_threads: the sharded scans merge to exactly the
  // single-pass tables, so the same logical view maps to the same key. The
  // coreset knobs DO change which rows are clustered, so they fingerprint.
  add("ccl", options.sharding.coreset_clustering ? "1" : "0");
  add("ccb", std::to_string(options.sharding.coreset_budget));
  return fp;
}

ViewCache::ViewCache(size_t byte_budget) : byte_budget_(byte_budget) {
  stats_.byte_budget = byte_budget;
}

std::shared_ptr<const CachedCadView> ViewCache::Lookup(
    const ViewCacheKey& key) {
  MutexLock lock(mu_);
  auto it = entries_.find(key.canonical);
  if (it == entries_.end()) {
    ++stats_.misses;
    CacheMetrics::Get().misses->Increment();
    return nullptr;
  }
  ++stats_.hits;
  stats_.hit_saved_ms += it->second.value->build_cost_ms;
  CacheMetrics::Get().hits->Increment();
  ++it->second.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.value;
}

void ViewCache::Insert(const ViewCacheKey& key, CadView view,
                       CachedPartitions partitions, double build_cost_ms,
                       const std::string& owner) {
  auto entry = std::make_shared<CachedCadView>();
  entry->view = std::move(view);
  entry->partitions = std::move(partitions);
  entry->build_cost_ms = build_cost_ms;
  entry->bytes = ApproxCadViewBytes(entry->view);
  for (const auto& [code, rows] : entry->partitions.rows_by_code) {
    entry->bytes += sizeof(code) + rows.size() * sizeof(uint32_t);
  }

  MutexLock lock(mu_);
  ++stats_.insert_attempts;
  if (entry->bytes > byte_budget_) {
    // Not counted as an insert: the entry never becomes resident, and
    // `inserts` must track the store (inserts - evictions - invalidations ==
    // entries) or it drifts under eviction pressure.
    ++stats_.oversize_rejects;
    CacheMetrics::Get().oversize_rejects->Increment();
    return;
  }
  if (entries_.find(key.canonical) != entries_.end()) {
    // Already resident; by the determinism contract both copies hold the
    // same bytes, so keep the one whose hit history we have. Not an insert
    // either — see above.
    return;
  }
  if (!owner.empty()) {
    auto it = owners_.find(owner);
    if (it != owners_.end() && it->second.budget != 0 &&
        it->second.bytes + entry->bytes > it->second.budget) {
      // Over the session's budget: the caller keeps its finished view, the
      // shared store just declines to hold it. Global LRU eviction would
      // punish *other* sessions for this one's appetite.
      ++stats_.owner_budget_rejects;
      return;
    }
  }
  while (!lru_.empty() && stats_.bytes_in_use + entry->bytes > byte_budget_) {
    EvictLruLocked();
  }
  lru_.push_front(key.canonical);
  Entry e;
  e.key = key;
  e.value = std::move(entry);
  e.lru_pos = lru_.begin();
  e.owner = owner;
  if (!owner.empty()) owners_[owner].bytes += e.value->bytes;
  stats_.bytes_in_use += e.value->bytes;
  CacheMetrics::Get().bytes_in_use->Add(static_cast<int64_t>(e.value->bytes));
  entries_.emplace(key.canonical, std::move(e));
  stats_.entries = entries_.size();
  ++stats_.inserts;
  CacheMetrics::Get().inserts->Increment();
  CacheMetrics::Get().entries->Add(1);
}

std::shared_ptr<const CachedCadView> ViewCache::FindRefinementBase(
    const ViewCacheKey& key) {
  MutexLock lock(mu_);
  const Entry* best = nullptr;
  for (const auto& [canonical, entry] : entries_) {
    const ViewCacheKey& k = entry.key;
    if (k.dataset != key.dataset || k.pivot_attr != key.pivot_attr ||
        k.params != key.params) {
      continue;
    }
    if (!k.pivot_values.empty() && k.pivot_values != key.pivot_values) {
      continue;
    }
    if (k.predicates.size() >= key.predicates.size()) continue;
    // Strict subset check: both sides are sorted and deduplicated.
    if (!std::includes(key.predicates.begin(), key.predicates.end(),
                       k.predicates.begin(), k.predicates.end())) {
      continue;
    }
    if (entry.value->partitions.rows_by_code.empty()) continue;
    if (best == nullptr ||
        k.predicates.size() > best->key.predicates.size() ||
        (k.predicates.size() == best->key.predicates.size() &&
         k.canonical < best->key.canonical)) {
      best = &entry;
    }
  }
  if (best == nullptr) return nullptr;
  ++stats_.refinement_seeds;
  CacheMetrics::Get().refinement_seeds->Increment();
  return best->value;
}

void ViewCache::SetOwnerBudget(const std::string& owner, size_t bytes) {
  MutexLock lock(mu_);
  auto it = owners_.find(owner);
  if (bytes == 0) {
    if (it != owners_.end()) {
      it->second.budget = 0;
      if (it->second.bytes == 0) owners_.erase(it);
    }
    return;
  }
  owners_[owner].budget = bytes;
}

size_t ViewCache::OwnerBytes(const std::string& owner) const {
  MutexLock lock(mu_);
  auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second.bytes;
}

void ViewCache::ReleaseOwnerBytesLocked(const std::string& owner,
                                        size_t bytes) {
  if (owner.empty()) return;
  auto it = owners_.find(owner);
  if (it == owners_.end()) return;
  it->second.bytes -= std::min(it->second.bytes, bytes);
  if (it->second.bytes == 0 && it->second.budget == 0) owners_.erase(it);
}

void ViewCache::InvalidateDataset(const std::string& dataset) {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.key.dataset == dataset) {
      ReleaseOwnerBytesLocked(it->second.owner, it->second.value->bytes);
      stats_.bytes_in_use -= it->second.value->bytes;
      ++stats_.invalidations;
      CacheMetrics::Get().invalidations->Increment();
      CacheMetrics::Get().bytes_in_use->Add(
          -static_cast<int64_t>(it->second.value->bytes));
      CacheMetrics::Get().entries->Add(-1);
      lru_.erase(it->second.lru_pos);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.entries = entries_.size();
}

void ViewCache::Clear() {
  MutexLock lock(mu_);
  stats_.invalidations += entries_.size();
  CacheMetrics::Get().invalidations->Increment(entries_.size());
  CacheMetrics::Get().bytes_in_use->Add(
      -static_cast<int64_t>(stats_.bytes_in_use));
  CacheMetrics::Get().entries->Add(-static_cast<int64_t>(entries_.size()));
  entries_.clear();
  lru_.clear();
  for (auto it = owners_.begin(); it != owners_.end();) {
    it->second.bytes = 0;
    it = it->second.budget == 0 ? owners_.erase(it) : std::next(it);
  }
  stats_.bytes_in_use = 0;
  stats_.entries = 0;
}

ViewCacheStats ViewCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::vector<ViewCacheEntryInfo> ViewCache::EntryInfosLocked() const {
  std::vector<ViewCacheEntryInfo> infos;
  infos.reserve(entries_.size());
  for (const std::string& canonical : lru_) {
    auto it = entries_.find(canonical);
    if (it == entries_.end()) continue;
    ViewCacheEntryInfo info;
    info.canonical = canonical;
    info.bytes = it->second.value->bytes;
    info.hits = it->second.hits;
    info.build_cost_ms = it->second.value->build_cost_ms;
    infos.push_back(std::move(info));
  }
  return infos;
}

std::vector<ViewCacheEntryInfo> ViewCache::EntryInfos() const {
  MutexLock lock(mu_);
  return EntryInfosLocked();
}

ViewCacheSnapshot ViewCache::Snapshot() const {
  MutexLock lock(mu_);
  ViewCacheSnapshot snapshot;
  snapshot.stats = stats_;
  snapshot.entries = EntryInfosLocked();
  return snapshot;
}

void ViewCache::EvictLruLocked() {
  const std::string& victim = lru_.back();
  auto it = entries_.find(victim);
  if (it != entries_.end()) {
    ReleaseOwnerBytesLocked(it->second.owner, it->second.value->bytes);
    stats_.bytes_in_use -= it->second.value->bytes;
    ++stats_.evictions;
    CacheMetrics::Get().evictions->Increment();
    CacheMetrics::Get().bytes_in_use->Add(
        -static_cast<int64_t>(it->second.value->bytes));
    CacheMetrics::Get().entries->Add(-1);
    entries_.erase(it);
  }
  lru_.pop_back();
  stats_.entries = entries_.size();
}

namespace {

size_t ApproxStringBytes(const std::string& s) {
  return sizeof(std::string) + s.capacity();
}

size_t ApproxIUnitBytes(const IUnit& u) {
  size_t bytes = sizeof(IUnit);
  bytes += ApproxStringBytes(u.pivot_value);
  bytes += u.member_positions.capacity() * sizeof(size_t);
  for (const IUnitCell& cell : u.cells) {
    bytes += sizeof(IUnitCell);
    bytes += cell.codes.capacity() * sizeof(int32_t);
    bytes += cell.counts.capacity() * sizeof(uint64_t);
    for (const std::string& l : cell.labels) bytes += ApproxStringBytes(l);
  }
  for (const auto& freqs : u.attr_freqs) {
    bytes += sizeof(freqs) + freqs.capacity() * sizeof(double);
  }
  return bytes;
}

}  // namespace

size_t ApproxCadViewBytes(const CadView& view) {
  size_t bytes = sizeof(CadView);
  bytes += ApproxStringBytes(view.pivot_attr);
  for (const CompareAttribute& ca : view.compare_attrs) {
    bytes += sizeof(CompareAttribute) + ApproxStringBytes(ca.name);
  }
  for (const CadViewRow& row : view.rows) {
    bytes += sizeof(CadViewRow) + ApproxStringBytes(row.pivot_value);
    for (const IUnit& u : row.iunits) bytes += ApproxIUnitBytes(u);
  }
  return bytes;
}

CachedPartitions PartitionsToBaseRows(const PartitionSeed& partitions,
                                      const RowSet& fragment_rows) {
  CachedPartitions out;
  out.rows_by_code.reserve(partitions.members_by_code.size());
  for (const auto& [code, members] : partitions.members_by_code) {
    std::vector<uint32_t> base;
    base.reserve(members.size());
    for (size_t pos : members) base.push_back(fragment_rows[pos]);
    out.rows_by_code.emplace_back(code, std::move(base));
  }
  return out;
}

PartitionSeed IntersectPartitions(const CachedPartitions& base,
                                  const RowSet& fragment_rows) {
  PartitionSeed out;
  for (const auto& [code, rows] : base.rows_by_code) {
    // Two-pointer merge over the ascending cached base-row ids and the
    // ascending refined fragment; matches become positions into the refined
    // fragment (== row positions of its projected DiscretizedTable).
    std::vector<size_t> members;
    size_t i = 0, j = 0;
    while (i < rows.size() && j < fragment_rows.size()) {
      if (rows[i] < fragment_rows[j]) {
        ++i;
      } else if (rows[i] > fragment_rows[j]) {
        ++j;
      } else {
        members.push_back(j);
        ++i;
        ++j;
      }
    }
    if (!members.empty()) {
      out.members_by_code.emplace_back(code, std::move(members));
    }
  }
  return out;
}

}  // namespace dbx
