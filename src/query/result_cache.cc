#include "query/result_cache.h"

#include <algorithm>
#include <map>

#include "common/metrics.h"
#include "common/stopwatch.h"

namespace paradise::query {

namespace {

/// Sorted distinct normalized values of one selection's OR-list.
std::vector<int64_t> NormalizedSet(const Selection& sel) {
  std::vector<int64_t> out;
  out.reserve(sel.values.size());
  for (const Literal& lit : sel.values) out.push_back(NormalizeLiteral(lit));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int64_t> Intersect(const std::vector<int64_t>& a,
                               const std::vector<int64_t>& b) {
  std::vector<int64_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

CanonicalQuery CanonicalQuery::From(const ConsolidationQuery& q) {
  CanonicalQuery canon;
  canon.measure = q.measure;
  canon.dims.resize(q.dims.size());
  for (size_t d = 0; d < q.dims.size(); ++d) {
    CanonicalDimension& cd = canon.dims[d];
    cd.group_by_col = q.dims[d].group_by_col;
    // ANDed selections on the same attribute column intersect: a value
    // satisfies both OR-lists iff it is in both. Dictionary codes map 1:1 to
    // normalized values, so intersecting value sets is exact.
    std::map<size_t, std::vector<int64_t>> merged;
    for (const Selection& sel : q.dims[d].selections) {
      std::vector<int64_t> values = NormalizedSet(sel);
      auto it = merged.find(sel.attr_col);
      if (it == merged.end()) {
        merged.emplace(sel.attr_col, std::move(values));
      } else {
        it->second = Intersect(it->second, values);
      }
    }
    cd.selections.assign(merged.begin(), merged.end());
  }
  return canon;
}

std::string CanonicalQuery::Signature() const {
  std::string out = "m" + std::to_string(measure);
  for (size_t d = 0; d < dims.size(); ++d) {
    const CanonicalDimension& cd = dims[d];
    out += "|d" + std::to_string(d) + ":g";
    out += cd.group_by_col ? std::to_string(*cd.group_by_col) : "-";
    for (const auto& [col, values] : cd.selections) {
      out += ";s" + std::to_string(col) + "{";
      for (size_t i = 0; i < values.size(); ++i) {
        if (i != 0) out += ",";
        out += std::to_string(values[i]);
      }
      out += "}";
    }
  }
  return out;
}

bool CanonicalQuery::SameSelectionFamily(const CanonicalQuery& o) const {
  if (measure != o.measure || dims.size() != o.dims.size()) return false;
  for (size_t d = 0; d < dims.size(); ++d) {
    if (dims[d].selections != o.dims[d].selections) return false;
  }
  return true;
}

ConsolidationResultCache::ConsolidationResultCache()
    : ConsolidationResultCache(Options{}) {}

ConsolidationResultCache::ConsolidationResultCache(Options options)
    : options_(options) {
  if (options_.metrics_enabled) {
    MetricsRegistry& reg = MetricsRegistry::Default();
    m_hits_ = reg.GetCounter("resultcache.hits");
    m_misses_ = reg.GetCounter("resultcache.misses");
    m_derived_ = reg.GetCounter("resultcache.derived");
    m_insertions_ = reg.GetCounter("resultcache.insertions");
    m_evictions_ = reg.GetCounter("resultcache.evictions");
    m_invalidations_ = reg.GetCounter("resultcache.invalidations");
    m_bytes_ = reg.GetGauge("resultcache.bytes");
    m_entries_ = reg.GetGauge("resultcache.entries");
    m_lookup_micros_ = reg.GetHistogram("resultcache.lookup_micros");
  }
}

std::shared_ptr<const GroupedResult> ConsolidationResultCache::Lookup(
    const std::string& scope, uint64_t epoch, const CanonicalQuery& canon) {
  Stopwatch watch;
  std::shared_ptr<const GroupedResult> result =
      Find(scope, epoch, canon, /*invalidate=*/true);
  if (m_lookup_micros_ != nullptr) {
    m_lookup_micros_->Record(static_cast<uint64_t>(watch.ElapsedMicros()));
  }
  return result;
}

std::shared_ptr<const GroupedResult> ConsolidationResultCache::Peek(
    const std::string& scope, uint64_t epoch, const CanonicalQuery& canon) {
  return Find(scope, epoch, canon, /*invalidate=*/false);
}

std::shared_ptr<const GroupedResult> ConsolidationResultCache::Find(
    const std::string& scope, uint64_t epoch, const CanonicalQuery& canon,
    bool invalidate) {
  const std::string key = scope + "\n" + canon.Signature();
  std::shared_ptr<const GroupedResult> result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lookups;
    auto it = index_.find(key);
    if (it != index_.end()) {
      if (it->second->epoch == epoch) {
        lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
        result = it->second->result;
        ++stats_.hits;
      } else if (invalidate) {
        EraseLocked(it->second, /*invalidation=*/true);
      }
    }
    if (result == nullptr) ++stats_.misses;
  }
  if (result != nullptr) {
    if (m_hits_ != nullptr) m_hits_->Increment();
  } else {
    if (m_misses_ != nullptr) m_misses_->Increment();
  }
  return result;
}

void ConsolidationResultCache::Insert(
    const std::string& scope, uint64_t epoch, const CanonicalQuery& canon,
    std::shared_ptr<const GroupedResult> result) {
  if (result == nullptr) return;
  std::string key = scope + "\n" + canon.Signature();
  const size_t bytes = EntryBytes(key, *result);
  if (bytes > options_.byte_budget) return;  // would evict everything else
  int64_t bytes_delta = 0;
  int64_t entries_delta = 0;
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) EraseLocked(it->second, /*invalidation=*/false);
    const uint64_t before_evictions = stats_.evictions;
    const uint64_t before_bytes = stats_.bytes_in_use;
    const uint64_t before_entries = stats_.entries;
    EvictToFitLocked(bytes);
    lru_.push_front(Entry{key, scope, epoch, canon, std::move(result), bytes});
    index_[std::move(key)] = lru_.begin();
    stats_.bytes_in_use += bytes;
    ++stats_.entries;
    ++stats_.insertions;
    evicted = stats_.evictions - before_evictions;
    bytes_delta = static_cast<int64_t>(stats_.bytes_in_use) -
                  static_cast<int64_t>(before_bytes);
    entries_delta = static_cast<int64_t>(stats_.entries) -
                    static_cast<int64_t>(before_entries);
  }
  if (m_insertions_ != nullptr) m_insertions_->Increment();
  if (m_evictions_ != nullptr && evicted > 0) m_evictions_->Increment(evicted);
  if (m_bytes_ != nullptr) m_bytes_->Add(bytes_delta);
  if (m_entries_ != nullptr) m_entries_->Add(entries_delta);
}

std::vector<ConsolidationResultCache::Candidate>
ConsolidationResultCache::DerivationCandidates(const std::string& scope,
                                               uint64_t epoch,
                                               const CanonicalQuery& target) {
  std::vector<Candidate> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : lru_) {
      if (e.scope != scope || e.epoch != epoch) continue;
      if (!e.canon.SameSelectionFamily(target)) continue;
      if (e.canon == target) continue;  // exact hits go through Lookup
      // Every dimension the target groups must be grouped in the source
      // (at some level — level derivability is checked by the caller
      // against the IndexToIndex maps); every dimension the target
      // collapses may be grouped or collapsed in the source (grouped rows
      // just merge into one).
      bool compatible = true;
      for (size_t d = 0; d < target.dims.size(); ++d) {
        if (target.dims[d].group_by_col.has_value() &&
            !e.canon.dims[d].group_by_col.has_value()) {
          compatible = false;
          break;
        }
      }
      if (compatible) out.push_back(Candidate{e.canon, e.result});
    }
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.result->num_groups() < b.result->num_groups();
  });
  return out;
}

void ConsolidationResultCache::NoteDerivedHit() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.derived_hits;
  }
  if (m_derived_ != nullptr) m_derived_->Increment();
}

ResultCacheStats ConsolidationResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ConsolidationResultCache::Clear() {
  int64_t bytes_delta = 0;
  int64_t entries_delta = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bytes_delta = -static_cast<int64_t>(stats_.bytes_in_use);
    entries_delta = -static_cast<int64_t>(stats_.entries);
    stats_.invalidations += stats_.entries;
    stats_.bytes_in_use = 0;
    stats_.entries = 0;
    index_.clear();
    lru_.clear();
  }
  if (m_invalidations_ != nullptr && entries_delta != 0) {
    m_invalidations_->Increment(static_cast<uint64_t>(-entries_delta));
  }
  if (m_bytes_ != nullptr) m_bytes_->Add(bytes_delta);
  if (m_entries_ != nullptr) m_entries_->Add(entries_delta);
}

size_t ConsolidationResultCache::EntryBytes(const std::string& key,
                                            const GroupedResult& r) {
  size_t bytes = sizeof(Entry) + key.size() * 2;  // key lives in entry + index
  bytes += r.codes().capacity() * sizeof(int32_t);
  bytes += r.aggs().capacity() * sizeof(AggState);
  for (const std::string& col : r.group_columns()) {
    bytes += sizeof(std::string) + col.capacity();
  }
  return bytes;
}

void ConsolidationResultCache::EvictToFitLocked(size_t incoming_bytes) {
  while (!lru_.empty() &&
         stats_.bytes_in_use + incoming_bytes > options_.byte_budget) {
    auto victim = std::prev(lru_.end());
    ++stats_.evictions;
    EraseLocked(victim, /*invalidation=*/false);
  }
}

void ConsolidationResultCache::EraseLocked(LruList::iterator it,
                                           bool invalidation) {
  stats_.bytes_in_use -= it->bytes;
  --stats_.entries;
  if (invalidation) ++stats_.invalidations;
  const int64_t bytes = static_cast<int64_t>(it->bytes);
  index_.erase(it->key);
  lru_.erase(it);
  // Mirror under the lock is fine — relaxed atomics, no allocation.
  if (m_bytes_ != nullptr) m_bytes_->Add(-bytes);
  if (m_entries_ != nullptr) m_entries_->Add(-1);
  if (invalidation && m_invalidations_ != nullptr) {
    m_invalidations_->Increment();
  }
}

}  // namespace paradise::query
